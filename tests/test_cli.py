"""Config parsing and the subcommand pipeline end to end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import assocrank
from assocrank.cli import (
    CliError,
    _atomic_via,
    apply_overrides,
    atomic_write_text,
    load_texts,
    main,
    parse_config_file,
)
from assocrank.model import AssocModel, load_model, save_model

ALL_COMMANDS = ["synth", "pairs", "train", "rerank", "eval", "sweep", "bench"]


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
        with pytest.raises(CliError, match=":2: texts need passage_id and text"):
            load_texts(str(path))

    def test_atomic_write_failure_leaves_no_debris(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), "original")

        def boom(_path):
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError):
            _atomic_via(str(target), boom)
        assert target.read_text() == "original"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []


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
                assert set(timing) == {"mean_ms", "p95_ms"}

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
            ("synth.n_passages", "invalid literal for int() with base 10: 'oops'"),
            ("synth.noise_scale", "could not convert string to float: 'oops'"),
        ],
        ids=["int", "float"],
    )
    def test_malformed_number_names_its_key(self, tmp_path, capsys, key, message):
        argv = ["synth", "--set", f"passages={tmp_path / 'p.aare'}", "--set", f"{key}=oops"]
        err = self.run_expecting_error(argv, capsys, message)
        assert err == f"error: config: {key}: {message}\n"
        assert os.listdir(tmp_path) == []

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
