"""Embedding store and binary container round trips.

The reference writer below rebuilds the container byte layout from the
documented field list, independently of the implementation, so the format
itself is pinned and not just save/load symmetry.
"""

import struct

import numpy as np
import pytest

from assocrank.embeddings import (
    MAGIC,
    VERSION,
    EmbeddingMatrix,
    FormatError,
    _row_norms,
    l2_normalize_rows,
    load_matrix,
    save_matrix,
)


def reference_container(ids, data, normalized):
    """Byte-for-byte oracle for the on-disk layout."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", len(ids))
    out += struct.pack("<I", data.shape[1])
    out += struct.pack("<B", 1 if normalized else 0)
    for pid in ids:
        raw = pid.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
    out += np.ascontiguousarray(data, dtype="<f4").tobytes()
    return bytes(out)


def random_matrix(rng, n, d, normalized=False):
    data = rng.normal(size=(n, d)).astype(np.float32)
    if normalized:
        data /= np.linalg.norm(data, axis=1, keepdims=True)
    ids = [f"id{i:04d}" for i in range(n)]
    return EmbeddingMatrix(ids=ids, data=data, normalized=normalized)


class TestMatrixBasics:
    def test_row_lookup_matches_order(self):
        m = random_matrix(np.random.default_rng(0), 7, 3)
        for i, pid in enumerate(m.ids):
            assert m.row(pid) == i

    def test_duplicate_ids_rejected(self):
        data = np.zeros((2, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="duplicate id"):
            EmbeddingMatrix(ids=["a", "a"], data=data)

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            EmbeddingMatrix(ids=["a"], data=np.zeros((2, 4), dtype=np.float32))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            EmbeddingMatrix(ids=["a"], data=np.zeros(4, dtype=np.float32))

    def test_unknown_id_raises_keyerror(self):
        m = random_matrix(np.random.default_rng(1), 3, 2)
        with pytest.raises(KeyError, match="unknown id"):
            m.row("nope")

    def test_contains(self):
        m = random_matrix(np.random.default_rng(2), 3, 2)
        assert "id0001" in m
        assert "missing" not in m

    def test_data_coerced_to_float32_contiguous(self):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2]
        m = EmbeddingMatrix(ids=["a", "b", "c"], data=data)
        assert m.data.dtype == np.float32
        assert m.data.flags["C_CONTIGUOUS"]


class TestNormalize:
    def test_rows_become_unit_norm(self):
        rng = np.random.default_rng(10)
        m = random_matrix(rng, 50, 16)
        normed = l2_normalize_rows(m)
        norms = np.linalg.norm(normed.data.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6
        assert normed.normalized

    def test_directions_preserved(self):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 20, 8)
        normed = l2_normalize_rows(m)
        # cosine between original and normalized row is 1
        dots = (m.data * normed.data).sum(axis=1)
        lens = np.linalg.norm(m.data, axis=1)
        assert np.abs(dots / lens - 1.0).max() < 1e-6

    def test_zero_row_error_names_id(self):
        data = np.ones((3, 4), dtype=np.float32)
        data[1] = 0.0
        m = EmbeddingMatrix(ids=["a", "b", "c"], data=data)
        with pytest.raises(ValueError, match="'b'"):
            l2_normalize_rows(m)

    def test_source_unmodified(self):
        rng = np.random.default_rng(12)
        m = random_matrix(rng, 5, 4)
        before = m.data.copy()
        l2_normalize_rows(m)
        assert np.array_equal(m.data, before)


class TestContainerFormat:
    def test_file_bytes_match_reference(self, tmp_path):
        rng = np.random.default_rng(20)
        for trial in range(10):
            n = int(rng.integers(0, 30))
            d = int(rng.integers(1, 40))
            m = EmbeddingMatrix(
                ids=[f"p{trial}-{i}" for i in range(n)],
                data=rng.normal(size=(n, d)).astype(np.float32),
                normalized=False,
            )
            path = tmp_path / f"m{trial}.aare"
            save_matrix(m, str(path))
            assert path.read_bytes() == reference_container(m.ids, m.data, False)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        for trial in range(20):
            n = int(rng.integers(1, 50))
            d = int(rng.integers(1, 30))
            m = random_matrix(rng, n, d, normalized=bool(trial % 2))
            path = tmp_path / "m.aare"
            save_matrix(m, str(path))
            back = load_matrix(str(path))
            assert back.ids == m.ids
            assert back.normalized == m.normalized
            assert back.data.tobytes() == m.data.tobytes()

    def test_unicode_ids_roundtrip(self, tmp_path):
        m = EmbeddingMatrix(
            ids=["ascii", "accént", "漢字"],
            data=np.eye(3, dtype=np.float32),
        )
        path = tmp_path / "u.aare"
        save_matrix(m, str(path))
        assert load_matrix(str(path)).ids == m.ids

    def test_payload_is_aligned_after_odd_length_ids(self, tmp_path):
        # 4 + 1 + 4 + 2 + 4 + 3 bytes of ids leave the payload at an odd offset
        # in the file; numpy's matmul skips BLAS on unaligned float32 data
        data = np.random.default_rng(5).normal(size=(3, 8)).astype(np.float32)
        path = tmp_path / "odd.aare"
        save_matrix(EmbeddingMatrix(ids=["a", "bb", "ccc"], data=data), str(path))
        back = load_matrix(str(path))
        assert back.data.flags.aligned
        assert back.data.tobytes() == data.tobytes()

    def test_empty_matrix_roundtrip(self, tmp_path):
        m = EmbeddingMatrix(ids=[], data=np.zeros((0, 5), dtype=np.float32))
        path = tmp_path / "e.aare"
        save_matrix(m, str(path))
        back = load_matrix(str(path))
        assert back.rows == 0
        assert back.dim == 5


class TestLoadValidation:
    def write_valid(self, tmp_path, normalized=False):
        rng = np.random.default_rng(30)
        m = random_matrix(rng, 6, 4, normalized=normalized)
        path = tmp_path / "v.aare"
        save_matrix(m, str(path))
        return path, m

    def test_bad_magic(self, tmp_path):
        path, _ = self.write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bad magic"):
            load_matrix(str(path))

    def test_unsupported_version(self, tmp_path):
        path, _ = self.write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version 99"):
            load_matrix(str(path))

    def test_truncated_payload(self, tmp_path):
        path, _ = self.write_valid(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_matrix(str(path))

    def test_header_dim_beyond_file_size(self, tmp_path):
        path, _ = self.write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated file while reading float payload"):
            load_matrix(str(path))

    def test_trailing_bytes(self, tmp_path):
        path, _ = self.write_valid(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_matrix(str(path))

    def test_non_finite_payload(self, tmp_path):
        path, m = self.write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            load_matrix(str(path))

    def test_expect_dim_mismatch(self, tmp_path):
        path, _ = self.write_valid(tmp_path)
        with pytest.raises(FormatError, match="d=4, expected d=8"):
            load_matrix(str(path), expect_dim=8)

    def test_norm_claim_checked(self, tmp_path):
        # normalized flag set but one row is clearly not unit norm
        data = np.eye(3, dtype=np.float32)
        data[2, 2] = 2.0
        m = EmbeddingMatrix(ids=["a", "b", "c"], data=data, normalized=True)
        path = tmp_path / "n.aare"
        save_matrix(m, str(path))
        with pytest.raises(FormatError, match="'c'"):
            load_matrix(str(path))
        back = load_matrix(str(path), validate_norms=False)
        assert back.normalized

    def test_blocked_norms_equal_the_whole_matrix_norms(self):
        data = np.random.default_rng(31).normal(size=(9000, 7)).astype(np.float32)
        expected = np.linalg.norm(data.astype(np.float64), axis=1)
        assert _row_norms(data).tobytes() == expected.tobytes()
