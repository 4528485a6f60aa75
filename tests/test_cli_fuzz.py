"""Damaged input files run through the subcommands that read them.

A tiny pipeline is built once; then each of its input files is damaged
(truncated at a stride of points, or one byte XORed with a seeded mask) and
run through every subcommand that reads it. Each run must either succeed or
fail with exactly one `error: ` line on stderr, raise nothing out of
`cli.main`, and leave no output file behind.
"""

import json
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
