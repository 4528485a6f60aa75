"""Damaged and interrupted writes of the five on-disk formats.

Seeded truncation and byte-flip fuzzing: every damaged file must either
load or raise its format's ValueError subclass: FormatError for .aare
matrices, CheckpointError for .aarm checkpoints, ValueError for pairs,
records and texts files. Anything else, such as the MemoryError a huge
length field can cause, would escape the CLI's one-line error report.

A save that fails before its rename leaves the old file and no temp file.
"""

import os

import numpy as np
import pytest

from assocrank.embeddings import EmbeddingMatrix, FormatError, load_matrix, save_matrix
from assocrank.model import AssocModel, CheckpointError, load_model, save_model
from assocrank.pairs import (
    AssocPairSet,
    QuestionRecord,
    load_pairs,
    load_records,
    load_texts,
    save_pairs,
    save_records,
    save_texts,
)

FLIPS = 400


def write_matrix(path):
    data = np.random.default_rng(0).standard_normal((5, 4)).astype(np.float32)
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    save_matrix(EmbeddingMatrix(ids=[f"p{i}" for i in range(5)], data=data, normalized=True), path)


def write_checkpoint(path):
    save_model(AssocModel.initialize(3, seed=0), path)


def write_pairs(path):
    pairs = [("p0", "p1"), ("p2", "p3"), ("p1", "p4")]
    save_pairs(AssocPairSet(pairs=pairs, pair_splits=[frozenset()] * 3), path)


def write_records(path):
    records = [
        QuestionRecord("q0", "which?", ["p0", "p1"], "p0", "train"),
        QuestionRecord("q1", "what?", ["p2"], "p2", "validation"),
    ]
    save_records(records, path)


def write_texts(path):
    save_texts({"p0": "first passage", "p1": "second"}, path)


FORMATS = {
    "aare": (write_matrix, load_matrix, FormatError),
    "aarm": (write_checkpoint, load_model, CheckpointError),
    "pairs": (write_pairs, load_pairs, ValueError),
    "records": (write_records, load_records, ValueError),
    "texts": (write_texts, load_texts, ValueError),
}


def damaged_copies(raw, seed):
    """Every strict prefix of `raw`, every copy with one byte set to 0xff
    (the high byte of a length field then asks for gigabytes), then FLIPS
    copies with one byte XORed by a seeded random mask."""
    for cut in range(len(raw)):
        yield f"truncated to {cut} bytes", raw[:cut]
    for pos in range(len(raw)):
        yield f"byte {pos} = 0xff", raw[:pos] + b"\xff" + raw[pos + 1 :]
    rng = np.random.default_rng(seed)
    for _ in range(FLIPS):
        pos, mask = int(rng.integers(len(raw))), int(rng.integers(1, 256))
        out = bytearray(raw)
        out[pos] ^= mask
        yield f"byte {pos} ^ {mask:#04x}", bytes(out)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_damaged_file_loads_or_raises_its_format_error(tmp_path, fmt):
    write, load, error = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(str(path))
    raw = path.read_bytes()
    load(str(path))
    for what, damaged in damaged_copies(raw, seed=len(fmt)):
        path.write_bytes(damaged)
        try:
            load(str(path))
        except error:
            pass
        except Exception as exc:  # any other exception type is the failure
            pytest.fail(f"{fmt} {what}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("fmt, line", [("records", "[1, 2]"), ("texts", "5")])
def test_non_object_line_is_a_value_error(tmp_path, fmt, line):
    write, load, _ = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(str(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match=r":3: not a JSON object$"):
        load(str(path))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch, fmt):
    write, _, _ = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    path.write_bytes(b"old bytes")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write(str(path))
    assert path.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == [path.name]
