"""Damaged input files and extreme config values run through the CLI.

A tiny pipeline is built once; then each of its input files is damaged
(truncated at a stride of points, or one byte XORed with a seeded mask) and
run through every subcommand that reads it. Each run must either succeed or
fail with exactly one `error: ` line on stderr, raise nothing out of
`cli.main`, and leave no output file behind.

A second pipeline of 200 passages runs every subcommand from the first one
that reads a config key set to an extreme value. A subcommand that fails
must print exactly one `error: ` line; one that succeeds must leave only
strict JSON with finite numbers in its outputs and on stdout.
"""

import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from assocrank.cli import main

CUTS = 8
FLIPS = 20

# input key -> the subcommands that read it
READERS = {
    "records": ["pairs", "eval"],
    "pairs": ["train"],
    "passages": ["train"],
    "checkpoint": ["rerank"],
    "texts": ["eval"],
}
OUTPUTS = {
    "pairs": ["pairs"],
    "train": ["checkpoint", "train.report"],
    "rerank": ["rerank.out"],
    "eval": ["eval.out"],
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-pipeline")
    cfg = {
        "passages": str(root / "passages.aare"),
        "queries": str(root / "queries.aare"),
        "records": str(root / "records.jsonl"),
        "texts": str(root / "texts.jsonl"),
        "pairs": str(root / "pairs.tsv"),
        "checkpoint": str(root / "model.aarm"),
        "synth.n_passages": 60,
        "synth.dim": 16,
        "synth.n_questions": 8,
        "synth.seed": 2,
        "train.epochs": 1,
        "train.batch_size": 4,
        "rerank.pool_depth": 20,
        "eval.ks": [5, 10],
        "eval.resamples": 20,
    }
    config_path = root / "run.cfg"
    lines = [f"{key} = {json.dumps(value)}" for key, value in cfg.items()]
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in ("synth", "pairs", "train"):
        assert main([command, "--config", str(config_path)]) == 0, command
    return cfg, config_path


def damaged_copies(raw, seed):
    """`raw` truncated at a stride of len(raw) // CUTS bytes, then FLIPS
    copies with one byte XORed by a seeded random mask."""
    for cut in range(0, len(raw), max(1, len(raw) // CUTS)):
        yield f"truncated to {cut} bytes", raw[:cut]
    rng = np.random.default_rng(seed)
    for _ in range(FLIPS):
        pos, mask = int(rng.integers(len(raw))), int(rng.integers(1, 256))
        out = bytearray(raw)
        out[pos] ^= mask
        yield f"byte {pos} ^ {mask:#04x}", bytes(out)


@pytest.mark.parametrize("key", sorted(READERS))
def test_damaged_input_exits_cleanly(pipeline, tmp_path, capsys, key):
    cfg, config_path = pipeline
    raw = Path(cfg[key]).read_bytes()
    damaged_path = tmp_path / Path(cfg[key]).name
    out = tmp_path / "out"
    out.mkdir()
    for what, damaged in damaged_copies(raw, seed=len(key)):
        damaged_path.write_bytes(damaged)
        for command in READERS[key]:
            argv = [command, "--config", str(config_path), "--set", f"{key}={damaged_path}"]
            for out_key in OUTPUTS[command]:
                argv += ["--set", f"{out_key}={out / out_key}"]
            capsys.readouterr()
            try:
                rc = main(argv)
            except Exception as exc:  # escaping main is a traceback
                pytest.fail(f"{key} {what} via {command}: {type(exc).__name__}: {exc}")
            err = capsys.readouterr().err
            case = f"{key} {what} via {command}: rc {rc}, stderr {err!r}"
            if rc == 0:
                for name in os.listdir(out):
                    os.remove(out / name)
                continue
            assert rc == 1, case
            assert err.startswith("error: ") and err.count("\n") == 1, case
            assert err.endswith("\n") and "Traceback" not in err, case
            assert os.listdir(out) == [], case


@pytest.mark.parametrize(
    "key, command",
    [("records", "pairs"), ("records", "eval"), ("texts", "eval"), ("pairs", "train")],
)
def test_bad_utf8_names_the_file_and_line(pipeline, tmp_path, capsys, key, command):
    cfg, config_path = pipeline
    lines = Path(cfg[key]).read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + b"\xbb" + lines[2][5:]
    bad = tmp_path / Path(cfg[key]).name
    bad.write_bytes(b"\n".join(lines))
    position = len(lines[0]) + len(lines[1]) + 2 + 5
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, "--config", str(config_path), "--set", f"{key}={bad}"]
    for out_key in OUTPUTS[command]:
        argv += ["--set", f"{out_key}={out / out_key}"]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: ValueError: {bad}:3: invalid UTF-8 (invalid start byte at byte {position})\n"
    assert os.listdir(out) == []


# the subcommands in pipeline order, each with the config keys naming the
# files it writes
STAGES = {
    "synth": ["passages", "queries", "records", "texts"],
    "pairs": ["pairs"],
    "train": ["checkpoint", "train.report"],
    "rerank": ["rerank.out"],
    "eval": ["eval.out"],
    "sweep": ["sweep.lambda_out", "sweep.depth_out"],
    "bench": ["bench.out"],
}
FLOAT_KEYS = [
    "synth.noise_scale",
    "train.temperature",
    "train.learning_rate",
    "train.weight_decay",
    "rerank.lambda",
    "sweep.lambdas",
]
INT_KEYS = [
    "synth.hops",
    "synth.bridge_offset_rank",
    "synth.n_clusters",
    "rerank.cutoff",
    "eval.resamples",
    "bench.reps",
    "bench.warmup",
    "bench.n_queries",
]
SEED_KEYS = ["synth.seed", "pairs.shuffle_seed", "train.seed", "eval.seed"]
# `key=value` as `--set` spells it; JSON reads 1e400 as inf
EXTREME_CASES = (
    [(key, value) for key in FLOAT_KEYS for value in ("NaN", "1e400", "-1e400", "-1", "0", "1e30")]
    + [(key, value) for key in INT_KEYS + SEED_KEYS for value in ("-1", "0")]
    + [(key, str(value)) for key in SEED_KEYS for value in (2**63, 2**64)]
)


@pytest.mark.parametrize("key", FLOAT_KEYS + INT_KEYS + SEED_KEYS + ["train.no_such_key"])
def test_every_fuzzed_key_is_a_setting(capsys, key):
    # the first stage that reads a key's section refuses it, before any
    # work, if it names no setting; the pinned counts below would otherwise
    # shift silently when a setting is deleted
    capsys.readouterr()
    assert main([key.split(".")[0], "--set", f"{key}=x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1, err
    assert ("unknown config key" in err) == (key == "train.no_such_key"), err


def strict_json(text, where):
    """`text` parsed as JSON that holds no NaN or infinity, in any spelling."""

    def refuse(name):
        raise AssertionError(f"{where}: {name} in {text[:200]!r}")

    value = json.loads(text, parse_constant=refuse)
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float):  # 1e400 parses to inf
            assert math.isfinite(item), f"{where}: {item} in {text[:200]!r}"
    return value


def check_outputs(cfg, stage, stdout):
    """Every JSON or CSV file `stage` wrote, and its stdout line, hold
    strict JSON with finite numbers (a CSV, finite numbers)."""
    strict_json(stdout, f"{stage} stdout")
    for key in STAGES[stage]:
        path = Path(cfg[key])
        if path.suffix not in (".json", ".jsonl", ".csv"):
            continue  # binary, or the pairs TSV
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".jsonl":
            for lineno, line in enumerate(text.splitlines(), 1):
                strict_json(line, f"{path}:{lineno}")
        elif path.suffix == ".json":
            strict_json(text, path)
        else:
            for row in csv.DictReader(text.splitlines()):
                for column, cell in row.items():
                    assert math.isfinite(float(cell)), f"{path}: {column} = {cell}"


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """The config of a 200-passage, 20-question pipeline at default
    settings, but for a batch that its 20 pairs fill, with a path for every
    file."""
    root = tmp_path_factory.mktemp("extremes")
    cfg = {key: str(root / name) for key, name in (
        ("passages", "passages.aare"),
        ("queries", "queries.aare"),
        ("records", "records.jsonl"),
        ("texts", "texts.jsonl"),
        ("pairs", "pairs.tsv"),
        ("checkpoint", "model.aarm"),
        ("train.report", "train_report.json"),
        ("rerank.out", "rerank.jsonl"),
        ("eval.out", "eval.json"),
        ("sweep.lambda_out", "lambda.csv"),
        ("sweep.depth_out", "depth.csv"),
        ("bench.out", "bench.json"),
    )}
    cfg.update({"synth.n_passages": 200, "synth.n_questions": 20, "train.batch_size": 16})
    config_path = root / "run.cfg"
    config_path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in cfg.items()), encoding="utf-8")
    return cfg, config_path


def test_extreme_config_values(small_pipeline, tmp_path, capsys):
    cfg, config_path = small_pipeline
    assert len(EXTREME_CASES) == 68
    # the pipeline at the config's own settings: every subcommand succeeds
    for stage in STAGES:
        capsys.readouterr()
        assert main([stage, "--config", str(config_path)]) == 0, stage
        check_outputs(cfg, stage, capsys.readouterr().out)
    stages = list(STAGES)
    exits = {0: 0, 1: 0}
    for n, (key, value) in enumerate(EXTREME_CASES):
        out = tmp_path / f"case{n}"
        out.mkdir()
        # the key's section names the first subcommand that reads it
        start = stages.index(key.split(".")[0])
        # the outputs of this case's stages go to its own directory, so that
        # later stages read them and earlier ones come from the pipeline
        case_cfg = dict(cfg)
        sets = [f"{key}={value}"]
        if key == "pairs.shuffle_seed":
            sets.append("pairs.transform=shuffled")
        for stage in stages[start:]:
            for out_key in STAGES[stage]:
                case_cfg[out_key] = str(out / Path(cfg[out_key]).name)
                sets.append(f"{out_key}={case_cfg[out_key]}")
        case = f"{key} = {value}"
        for stage in stages[start:]:
            capsys.readouterr()
            try:
                rc = main([stage, "--config", str(config_path)] + [a for s in sets for a in ("--set", s)])
            except Exception as exc:  # escaping main is a traceback
                pytest.fail(f"{case} via {stage}: {type(exc).__name__}: {exc}")
            captured = capsys.readouterr()
            if rc != 0:
                assert rc == 1, f"{case} via {stage}: rc {rc}"
                err = captured.err
                assert err.startswith("error: ") and err.count("\n") == 1, f"{case} via {stage}: {err!r}"
                break
            assert captured.err == "", f"{case} via {stage}: {captured.err!r}"
            check_outputs(case_cfg, stage, captured.out)
        exits[rc] += 1
    assert exits == {0: 18, 1: 50}
