"""Config parsing and the subcommand pipeline end to end."""

import json
import os
import shutil
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import assocrank
from assocrank import cli
from assocrank.cli import (
    CliError,
    _check,
    apply_overrides,
    main,
    parse_config_file,
    write_json,
)
from assocrank.embeddings import load_matrix, write_atomic
from assocrank.model import AssocModel, load_model, save_model, transform_matrix
from assocrank.pairs import load_texts
from assocrank.rerank import RerankConfig, rerank_query
from assocrank.search import top_k

ALL_COMMANDS = ["synth", "pairs", "train", "rerank", "eval", "sweep", "bench"]
OUTPUTS = {
    "synth": ["passages", "queries", "records", "texts"],
    "train": ["checkpoint", "train.report"],
    "rerank": ["rerank.out"],
    "pairs": ["pairs"],
    "eval": ["eval.out"],
    "sweep": ["sweep.lambda_out", "sweep.depth_out"],
    "bench": ["bench.out"],
}


def write_config(path, mapping):
    lines = [f"{key} = {json.dumps(value)}" for key, value in mapping.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def base_config(root):
    return {
        "passages": str(root / "passages.aare"),
        "queries": str(root / "queries.aare"),
        "records": str(root / "records.jsonl"),
        "texts": str(root / "texts.jsonl"),
        "pairs": str(root / "pairs.tsv"),
        "checkpoint": str(root / "model.aarm"),
        "synth.n_passages": 300,
        "synth.dim": 16,
        "synth.n_questions": 30,
        "synth.seed": 5,
        "train.epochs": 8,
        "train.batch_size": 8,
        "train.temperature": 0.2,
        "train.learning_rate": 0.01,
        "train.weight_decay": 0.01,
        "train.seed": 3,
        "train.report": str(root / "train_report.json"),
        "rerank.lambda": 0.5,
        "rerank.pool_depth": 50,
        "rerank.cutoff": 5,
        "rerank.out": str(root / "rerank.jsonl"),
        "eval.out": str(root / "eval.json"),
        "eval.resamples": 200,
        "eval.ks": [5, 10],
        "sweep.lambda_out": str(root / "lambda.csv"),
        "sweep.depth_out": str(root / "depth.csv"),
        "sweep.lambdas": [0.0, 0.5],
        "sweep.depths": [10, 50],
        "sweep.ks": [5],
        "bench.out": str(root / "bench.json"),
        "bench.pool_depths": [20, 40],
        "bench.n_queries": 4,
        "bench.warmup": 0,
        "bench.reps": 1,
    }


class TestConfigParsing:
    def test_values_parse_as_json_with_string_fallback(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "\n"
            "alpha = 3\n"
            "beta = 0.25\n"
            "flag = true\n"
            "ks = [5, 10]\n"
            'quoted = "hello"\n'
            "path = out/results.json\n",
            encoding="utf-8",
        )
        cfg = parse_config_file(str(cfg_file))
        assert cfg == {
            "alpha": 3,
            "beta": 0.25,
            "flag": True,
            "ks": [5, 10],
            "quoted": "hello",
            "path": "out/results.json",
        }

    def test_typed_values(self):
        assert _check("k", 3, "int") == 3
        for bad in (True, 60.9, "60", None, [1]):
            with pytest.raises(CliError, match="^k: expected int, got "):
                _check("k", bad, "int")
        assert type(_check("k", 3, "float")) is float
        assert _check("k", None, "int | None") is None
        assert _check("k", 7, "int | None") == 7
        assert _check("k", [0, 0.5], "list[float]") == [0.0, 0.5]
        with pytest.raises(CliError, match="^k: expected list\\[int\\], got 5$"):
            _check("k", 5, "list[int]")
        with pytest.raises(CliError, match="^k: expected str, got false$"):
            _check("k", False, "str")
        with pytest.raises(CliError) as info:  # the echoed JSON stops at 60 characters
            _check("k", list(range(100)), "str")
        assert str(info.value) == "k: expected str, got " + json.dumps(list(range(100)))[:60]

    def test_bad_line_reports_lineno(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("good = 1\nnot a pair\n", encoding="utf-8")
        with pytest.raises(CliError, match=r":2: expected key = value"):
            parse_config_file(str(cfg_file))

    def test_overrides(self):
        cfg = {"a": 1, "keep": "x"}
        apply_overrides(cfg, ["a=2", "b=[1,2]", "c=text"])
        assert cfg == {"a": 2, "keep": "x", "b": [1, 2], "c": "text"}
        with pytest.raises(CliError, match="--set expects key=value"):
            apply_overrides({}, ["oops"])

    def test_load_texts_validation(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text('{"passage_id": "p1", "text": "hi"}\n{"text": "no id"}\n')
        with pytest.raises(ValueError) as info:
            load_texts(str(path))
        assert str(info.value) == f"{path}:2: missing field 'passage_id'"

    def test_atomic_write_failure_leaves_no_debris(self, tmp_path):
        target = tmp_path / "out.json"
        write_atomic(str(target), b"original")
        with pytest.raises(TypeError):
            write_atomic(str(target), "text, not bytes: the write fails")
        assert target.read_text() == "original"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_outputs_follow_the_umask(self, tmp_path, umask, mode):
        fresh, existing = tmp_path / "fresh.json", tmp_path / "existing.json"
        existing.write_text("old")
        existing.chmod(0o640)
        old_umask = os.umask(umask)
        try:
            write_json(str(fresh), {"a": 1})
            write_atomic(str(existing), b"new")
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == mode
        assert stat.S_IMODE(existing.stat().st_mode) == mode


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-pipeline")
    cfg = base_config(root)
    config_path = root / "run.cfg"
    write_config(config_path, cfg)
    for command in ALL_COMMANDS:
        rc = main([command, "--config", str(config_path)])
        assert rc == 0, f"{command} failed"
    return root, cfg, config_path


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, cfg, _ = pipeline
        for key in (
            "passages",
            "queries",
            "records",
            "texts",
            "pairs",
            "checkpoint",
            "train.report",
            "rerank.out",
            "eval.out",
            "sweep.lambda_out",
            "sweep.depth_out",
            "bench.out",
        ):
            assert os.path.exists(cfg[key]), key

    def test_rerank_output_shape(self, pipeline):
        _, cfg, _ = pipeline
        lines = open(cfg["rerank.out"], encoding="utf-8").read().splitlines()
        assert len(lines) == 30
        row = json.loads(lines[0])
        assert set(row) == {"query_id", "ranking"}
        assert len(row["ranking"]) == 5
        assert set(row["ranking"][0]) == {"passage_id", "sim", "assoc", "blended"}

    def test_eval_report_shape(self, pipeline):
        _, cfg, _ = pipeline
        payload = json.loads(open(cfg["eval.out"], encoding="utf-8").read())
        assert set(payload["systems"]) == {"dense", "rerank"}
        assert "5" in payload["deltas"]
        counts = payload["movement"]["counts"]
        assert sum(counts.values()) == 30
        assert payload["config"]["lambda"] == 0.5
        assert "wall_time" in payload["timing"]

    def test_sweep_tables(self, pipeline):
        _, cfg, _ = pipeline
        lam = open(cfg["sweep.lambda_out"], encoding="utf-8").read().splitlines()
        assert lam[0] == "lambda,recall_at_5"
        assert len(lam) == 3
        depth = open(cfg["sweep.depth_out"], encoding="utf-8").read().splitlines()
        assert depth[0] == "depth,gold_in_pool,recall_at_5"
        assert len(depth) == 3

    def test_bench_report_shape(self, pipeline):
        _, cfg, _ = pipeline
        payload = json.loads(open(cfg["bench.out"], encoding="utf-8").read())
        assert set(payload["depths"]) == {"20", "40"}
        for stats in payload["depths"].values():
            assert set(stats) == {
                "candidate_retrieval",
                "query_transform",
                "association_scoring",
                "blend_rank",
                "total",
            }
            for timing in stats.values():
                assert set(timing) == {"mean_ms", "p50_ms", "p95_ms"}

    def test_lambda_zero_eval_equals_baseline(self, pipeline, tmp_path):
        _, cfg, config_path = pipeline
        out = tmp_path / "eval0.json"
        rc = main(
            [
                "eval",
                "--config",
                str(config_path),
                "--set",
                "rerank.lambda=0.0",
                "--set",
                f"eval.out={out}",
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        for k in ("5", "10"):
            assert payload["deltas"][k]["delta"] == 0.0
        counts = payload["movement"]["counts"]
        assert counts["rescued"] == 0
        assert counts["regressed"] == 0

    def test_epochs_zero_checkpoint_equals_initialization(self, pipeline, tmp_path):
        _, cfg, config_path = pipeline
        ckpt = tmp_path / "init.aarm"
        rc = main(
            [
                "train",
                "--config",
                str(config_path),
                "--set",
                "train.epochs=0",
                "--set",
                f"checkpoint={ckpt}",
            ]
        )
        assert rc == 0
        trained = load_model(str(ckpt))
        fresh = AssocModel.initialize(16, seed=3)
        for (name_a, a), (name_b, b) in zip(trained.param_items(), fresh.param_items()):
            assert name_a == name_b
            assert np.array_equal(a, b)


    def test_eval_rankings_equal_rerank_query(self, pipeline, tmp_path, monkeypatch):
        # eval scores its 30 queries in blocks of 16; each ranking must be
        # the one rerank_query gives that query alone
        _, cfg, config_path = pipeline
        seen = {}
        real = cli.evaluation.evaluate_system

        def recording(name, rankings, *args):
            seen[name] = rankings
            return real(name, rankings, *args)

        monkeypatch.setattr(cli.evaluation, "evaluate_system", recording)
        argv = ["eval", "--config", str(config_path), "--set", f"eval.out={tmp_path / 'e.json'}"]
        assert main(argv) == 0
        passages, queries = load_matrix(cfg["passages"]), load_matrix(cfg["queries"])
        model = load_model(cfg["checkpoint"])
        transformed = transform_matrix(model, passages)
        config = RerankConfig(blend_lambda=0.5, pool_depth=50, cutoff=50)
        assert sorted(seen["rerank"]) == sorted(queries.ids)
        for qid, q in zip(queries.ids, queries.data):
            result = rerank_query(qid, q, passages, transformed, model, config)
            assert seen["rerank"][qid] == [passages.ids[e.passage_row] for e in result.entries]
            dense_rows, _ = top_k(q, passages, 50)
            assert seen["dense"][qid] == [passages.ids[r] for r in dense_rows]


class TestDeterminism:
    def test_repeated_runs_identical_modulo_timing(self, tmp_path):
        root = tmp_path
        cfg = base_config(root)
        cfg["synth.n_passages"] = 200
        cfg["synth.n_questions"] = 16
        cfg["train.epochs"] = 4
        cfg["rerank.pool_depth"] = 30
        cfg["sweep.depths"] = [10, 30]
        config_path = root / "run.cfg"
        write_config(config_path, cfg)

        outputs = {
            "synth": ["passages", "queries", "records", "texts"],
            "pairs": ["pairs"],
            "train": ["checkpoint", "train.report"],
            "rerank": ["rerank.out"],
            "eval": ["eval.out"],
            "sweep": ["sweep.lambda_out", "sweep.depth_out"],
        }

        def run_all(tag):
            sets = []
            for keys in outputs.values():
                for key in keys:
                    base = cfg[key]
                    stem, ext = os.path.splitext(os.path.basename(base))
                    sets.append(f"{key}={root / f'{stem}-{tag}{ext}'}")
            for command in outputs:
                argv = ["--config", str(config_path)]
                for item in sets:
                    argv += ["--set", item]
                assert main([command] + argv) == 0

        run_all("a")
        run_all("b")

        def artifact(key, tag):
            base = cfg[key]
            stem, ext = os.path.splitext(os.path.basename(base))
            return root / f"{stem}-{tag}{ext}"

        for command, keys in outputs.items():
            for key in keys:
                a = artifact(key, "a").read_bytes()
                b = artifact(key, "b").read_bytes()
                if key in ("train.report", "eval.out"):
                    pa, pb = json.loads(a), json.loads(b)
                    pa.pop("timing")
                    pb.pop("timing")
                    assert pa == pb, key
                else:
                    assert a == b, key


BAD_CONFIG_VALUES = [
    ("train", "train.epochs=3.5", "train.epochs: expected int, got 3.5"),
    ("train", "train.seed=1.5", "train.seed: expected int, got 1.5"),
    ("train", "train.batch_size=true", "train.batch_size: expected int, got true"),
    ("train", "train.momentum=0.9", "unknown config key 'train.momentum'"),
    ("train", "train.adam_beta1=7", "bad train config: adam_beta1 must be in [0, 1), got 7.0"),
    (
        "train",
        "train.temperature=NaN",
        "bad train config: temperature must be finite and > 0, got nan",
    ),
    (
        "train",
        "train.batch_size=1",
        "batch_size must be >= 2: a batch of one pair has no in-batch contrast",
    ),
    ("rerank", "rerank.pool_depth=100.7", "rerank.pool_depth: expected int, got 100.7"),
    ("rerank", "rerank.lamda=0.3", "unknown config key 'rerank.lamda'"),
    ("synth", "synth.n_passages=60.9", "synth.n_passages: expected int, got 60.9"),
    ("synth", "synth.n_pasages=10", "unknown config key 'synth.n_pasages'"),
    ("pairs", "pairs.split_mode=1", "pairs.split_mode: expected str, got 1"),
    ("eval", 'eval.ks=[5, "x"]', 'eval.ks[1]: expected int, got "x"'),
    ("eval", "eval.ks=[]", "eval.ks must be a non-empty list of ks >= 1, got []"),
    ("eval", "eval.ks=[5, 0]", "eval.ks must be a non-empty list of ks >= 1, got [5, 0]"),
    ("sweep", "sweep.ks=[5, 500]", "sweep.ks [5, 500] exceed rerank.pool_depth 50"),
    ("sweep", "sweep.ks=[]", "sweep.ks must be a non-empty list of ks >= 1, got []"),
    ("sweep", "sweep.ks=[0, 5]", "sweep.ks must be a non-empty list of ks >= 1, got [0, 5]"),
    (
        "bench",
        "bench.pool_depths=[]",
        "bench.pool_depths must be a non-empty list of depths >= 1, got []",
    ),
    (
        "bench",
        "bench.pool_depths=[20, 0]",
        "bench.pool_depths must be a non-empty list of depths >= 1, got [20, 0]",
    ),
]


class TestErrors:
    def run_expecting_error(self, argv, capsys, fragment):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("\n") == 1  # single-line stderr
        assert captured.err.startswith("error: ")
        assert fragment in captured.err
        return captured.err

    def test_missing_required_key(self, capsys):
        err = self.run_expecting_error(
            ["synth", "--set", "synth.n_passages=60", "--set", "synth.n_questions=4"],
            capsys,
            "missing required config key 'passages'",
        )
        assert err.startswith("error: config: ")

    def test_missing_input_file(self, tmp_path, capsys):
        argv = [
            "train",
            "--set",
            f"passages={tmp_path / 'nope.aare'}",
            "--set",
            f"pairs={tmp_path / 'nope.tsv'}",
            "--set",
            f"checkpoint={tmp_path / 'out.aarm'}",
        ]
        err = self.run_expecting_error(argv, capsys, "error: missing-file: ")
        assert "nope" in err

    def test_bad_config_file_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("key_without_value\n", encoding="utf-8")
        self.run_expecting_error(
            ["synth", "--config", str(bad)], capsys, ":1: expected key = value"
        )

    @pytest.mark.parametrize(
        "key, message",
        [
            ("synth.n_passages", 'expected int, got "oops"'),
            ("synth.noise_scale", 'expected float, got "oops"'),
        ],
        ids=["int", "float"],
    )
    def test_malformed_number_names_its_key(self, tmp_path, capsys, key, message):
        argv = ["synth", "--set", f"passages={tmp_path / 'p.aare'}", "--set", f"{key}=oops"]
        err = self.run_expecting_error(argv, capsys, message)
        assert err == f"error: config: {key}: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value, shown", [("1e400", "inf"), ("NaN", "nan"), ("-0.5", "-0.5")])
    def test_noise_scale_must_be_finite(self, tmp_path, capsys, value, shown):
        # JSON reads 1e400 as inf and NaN as nan; either would make a NaN corpus
        argv = _synth_args(tmp_path) + ["--set", f"synth.noise_scale={value}"]
        err = self.run_expecting_error(argv, capsys, "")
        assert err == f"error: config: bad synth config: noise_scale must be finite and >= 0, got {shown}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_number_too_large_for_a_float(self, pipeline, tmp_path, capsys, digits):
        # 400 digits parse as a JSON integer that float() cannot hold; 5000
        # are more than int() converts, so the value stays a string
        _, _, config_path = pipeline
        value = "1" + "0" * (digits - 1)
        argv = ["eval", "--config", str(config_path), "--set", f"rerank.lambda={value}"]
        argv += ["--set", f"eval.out={tmp_path / 'eval.json'}"]
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, "")
        shown = value[:60] if digits == 400 else f'"{value[:59]}'
        assert err == f"error: config: rerank.lambda: expected float, got {shown}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command, setting, message", BAD_CONFIG_VALUES, ids=[c[1] for c in BAD_CONFIG_VALUES]
    )
    def test_bad_config_value(self, pipeline, tmp_path, capsys, command, setting, message):
        _, _, config_path = pipeline
        argv = [command, "--config", str(config_path), "--set", setting]
        for key in OUTPUTS[command]:
            argv += ["--set", f"{key}={tmp_path / key}"]
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, message)
        assert err == f"error: config: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_eval_ks_without_the_hit_cutoff(self, pipeline, tmp_path, capsys, monkeypatch):
        def no_scoring(*args, **kwargs):
            pytest.fail("scored a pool")

        monkeypatch.setattr(cli.rerank_mod, "score_pool", no_scoring)
        _, _, config_path = pipeline
        argv = ["eval", "--config", str(config_path), "--set", "eval.ks=[10]"]
        argv += ["--set", f"eval.out={tmp_path / 'eval.json'}"]
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, "")
        assert err == "error: config: eval.ks [10] must include the hit cutoff 5\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("synth", "passages=5"),
            ("synth", "texts=5"),
            ("train", "passages=0"),
            ("train", "train.report=5"),
        ],
    )
    def test_path_must_be_a_string(
        self, pipeline, tmp_path, capsys, monkeypatch, command, setting
    ):
        def no_read(path, *args, **kwargs):
            pytest.fail(f"read input {path!r}")

        monkeypatch.setattr(cli, "load_matrix", no_read)
        _, _, config_path = pipeline
        argv = [command, "--config", str(config_path)]
        for key in OUTPUTS[command]:
            argv += ["--set", f"{key}={tmp_path / key}"]
        argv += ["--set", setting]  # last, so it overrides the output paths
        key, _, value = setting.partition("=")
        message = f"{key}: expected str, got {value}"
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, message)
        assert err == f"error: config: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command, key, field, value, message",
        [
            ("pairs", "records", "gold_passage_ids", 5, "expected list[str], got 5"),
            ("eval", "records", "split", ["train"], 'expected str, got ["train"]'),
            ("eval", "texts", "passage_id", ["p"], 'expected str, got ["p"]'),
        ],
        ids=["pairs-records", "eval-records", "eval-texts"],
    )
    def test_wrongly_typed_input_field(
        self, pipeline, tmp_path, capsys, command, key, field, value, message
    ):
        _, cfg, config_path = pipeline
        lines = Path(cfg[key]).read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first[field] = value
        bad = tmp_path / f"{key}.jsonl"
        bad.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--config", str(config_path), "--set", f"{key}={bad}"]
        for out_key in OUTPUTS[command]:
            argv += ["--set", f"{out_key}={out / out_key}"]
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, f"{bad}:1: {field}: {message}")
        assert err == f"error: ValueError: {bad}:1: {field}: {message}\n"
        assert "Traceback" not in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("key", ["records", "texts"])
    def test_input_nested_too_deep_to_decode(self, pipeline, tmp_path, capsys, key):
        _, cfg, config_path = pipeline
        lines = Path(cfg[key]).read_text(encoding="utf-8").splitlines()
        bad = tmp_path / f"{key}.jsonl"
        nested = "[" * 100_000 + "]" * 100_000
        bad.write_text("\n".join(lines[:2] + ['{"x": ' + nested + "}"] + lines[2:]) + "\n")
        out = tmp_path / "eval.json"
        argv = ["eval", "--config", str(config_path), "--set", f"{key}={bad}"]
        argv += ["--set", f"eval.out={out}"]
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, "")
        assert err.startswith(f"error: ValueError: {bad}:3: invalid JSON (maximum recursion depth")
        assert not out.exists()

    def test_texts_without_a_passage_fail_before_scoring(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        def no_scoring(*args, **kwargs):
            pytest.fail("scored a pool")

        monkeypatch.setattr(cli.rerank_mod, "score_pool", no_scoring)
        _, cfg, config_path = pipeline
        lines = Path(cfg["texts"]).read_text(encoding="utf-8").splitlines()
        dropped = json.loads(lines[4])["passage_id"]
        bad = tmp_path / "texts.jsonl"
        bad.write_text("\n".join(lines[:4] + lines[5:]) + "\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        argv = ["eval", "--config", str(config_path), "--set", f"texts={bad}"]
        argv += ["--set", f"eval.out={out}"]
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, "")
        assert err == f"error: ValueError: {bad}: no text for passage {dropped!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "pairs_text, message",
        [
            ("a\tb\n", "pair id 'a' not present in the embedding matrix"),
            ("", "empty pair set"),
            (None, "batch_size 8 exceeds pair count 3"),
        ],
        ids=["unknown-id", "empty", "too-few"],
    )
    def test_pair_faults_name_the_pairs_file(
        self, pipeline, tmp_path, capsys, pairs_text, message
    ):
        _, cfg, config_path = pipeline
        if pairs_text is None:  # the first three pairs of the real file
            pairs_text = "".join(Path(cfg["pairs"]).read_text(encoding="utf-8").splitlines(True)[:4])
        bad = tmp_path / "pairs.tsv"
        bad.write_text(pairs_text, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        argv = ["train", "--config", str(config_path), "--set", f"pairs={bad}"]
        for key in OUTPUTS["train"]:
            argv += ["--set", f"{key}={out / key}"]
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, message)
        assert err == f"error: ValueError: {bad}: {message}\n"
        assert os.listdir(out) == []

    def test_corrupt_matrix_header(self, pipeline, tmp_path, capsys):
        _, cfg, config_path = pipeline
        raw = bytearray(Path(cfg["passages"]).read_bytes())
        raw[16:20] = struct.pack("<I", 2**32 - 1)  # the dim field
        corrupt = tmp_path / "passages.aare"
        corrupt.write_bytes(bytes(raw))
        out = tmp_path / "rerank.jsonl"
        argv = ["rerank", "--config", str(config_path), "--set", f"passages={corrupt}"]
        argv += ["--set", f"rerank.out={out}"]
        capsys.readouterr()
        err = self.run_expecting_error(argv, capsys, "truncated file while reading float payload")
        assert err.startswith("error: FormatError: ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_activation(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["synth.n_passages"] = 120
        cfg["synth.n_questions"] = 6
        cfg["train.epochs"] = 0
        cfg["train.batch_size"] = 2
        cfg["rerank.pool_depth"] = 20
        config_path = tmp_path / "run.cfg"
        write_config(config_path, cfg)
        for command in ("synth", "pairs", "train"):
            assert main([command, "--config", str(config_path)]) == 0
        model = load_model(cfg["checkpoint"])
        for weight in model.weights:
            weight[:] = 3e38
        save_model(model, cfg["checkpoint"])
        capsys.readouterr()
        err = self.run_expecting_error(
            ["rerank", "--config", str(config_path)], capsys, "non-finite values after affine 0"
        )
        assert err.startswith("error: FloatingPointError: ")
        assert not os.path.exists(cfg["rerank.out"])

    def test_bad_rerank_lambda(self, tmp_path, capsys):
        root = tmp_path
        cfg = base_config(root)
        cfg["synth.n_passages"] = 120
        cfg["synth.n_questions"] = 6
        cfg["train.epochs"] = 0
        cfg["train.batch_size"] = 2
        config_path = root / "run.cfg"
        write_config(config_path, cfg)
        for command in ("synth", "pairs", "train"):
            assert main([command, "--config", str(config_path)]) == 0
        capsys.readouterr()
        self.run_expecting_error(
            ["rerank", "--config", str(config_path), "--set", "rerank.lambda=1.5"],
            capsys,
            "bad rerank config",
        )

    def test_unknown_pairs_transform(self, tmp_path, capsys):
        root = tmp_path
        cfg = base_config(root)
        cfg["synth.n_passages"] = 120
        cfg["synth.n_questions"] = 6
        config_path = root / "run.cfg"
        write_config(config_path, cfg)
        assert main(["synth", "--config", str(config_path)]) == 0
        capsys.readouterr()
        self.run_expecting_error(
            ["pairs", "--config", str(config_path), "--set", "pairs.transform=bogus"],
            capsys,
            "unknown pairs.transform 'bogus'",
        )

    def test_eval_ks_beyond_pool(self, tmp_path, capsys):
        root = tmp_path
        cfg = base_config(root)
        cfg["synth.n_passages"] = 120
        cfg["synth.n_questions"] = 6
        cfg["train.epochs"] = 0
        cfg["train.batch_size"] = 2
        cfg["rerank.pool_depth"] = 20
        config_path = root / "run.cfg"
        write_config(config_path, cfg)
        for command in ("synth", "pairs", "train"):
            assert main([command, "--config", str(config_path)]) == 0
        capsys.readouterr()
        self.run_expecting_error(
            ["eval", "--config", str(config_path), "--set", "eval.ks=[50]"],
            capsys,
            "exceed rerank.pool_depth",
        )


def _declared_console_script(name):
    """Return (module, attribute) for `name` in pyproject's [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = entry.partition(":")
    return module.strip(), attr.strip()


def _run_declared_console_script(args, cwd):
    """Run the declared `assocrank` entry point as its own process.

    The launcher is the one setuptools writes for a console script, so this
    needs neither an install nor a script on PATH. The child finds the
    package through the absolute directory that holds it: an inherited
    relative PYTHONPATH such as `src` does not resolve from `cwd`.
    """
    module, attr = _declared_console_script("assocrank")
    launcher = (
        "import sys\n"
        f"from {module} import {attr} as main\n"
        "sys.argv[0] = 'assocrank'\n"
        "sys.exit(main())\n"
    )
    package_root = str(Path(assocrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", launcher, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def _synth_args(tmp_path):
    return [
        "synth",
        "--set",
        "synth.n_passages=60",
        "--set",
        "synth.dim=16",
        "--set",
        "synth.n_questions=4",
        "--set",
        f"passages={tmp_path / 'p.aare'}",
        "--set",
        f"queries={tmp_path / 'q.aare'}",
        "--set",
        f"records={tmp_path / 'r.jsonl'}",
    ]


def _assert_synth_ran(proc, tmp_path):
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary == {"passages": 60, "queries": 4, "records": 4}
    for name in ("p.aare", "q.aare", "r.jsonl"):
        assert (tmp_path / name).exists(), name


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = _run_declared_console_script(_synth_args(tmp_path), cwd=tmp_path)
        _assert_synth_ran(proc, tmp_path)

        bad = tmp_path / "bad"
        bad.mkdir()
        proc = _run_declared_console_script(
            _synth_args(bad) + ["--set", "synth.n_passages=oops"], cwd=bad
        )
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1, proc.stderr  # single-line stderr
        assert proc.stderr.startswith("error: "), proc.stderr
        assert os.listdir(bad) == []

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats alone adds about a second to every command's start-up
        package_root = str(Path(assocrank.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, assocrank.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.skipif(
        shutil.which("assocrank") is None, reason="no assocrank console script on PATH"
    )
    def test_console_script_on_path(self, tmp_path):
        proc = subprocess.run(
            [shutil.which("assocrank"), *_synth_args(tmp_path)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        _assert_synth_ran(proc, tmp_path)
