"""Exact top-K retrieval against a 64-bit full-sort oracle."""

import numpy as np
import pytest

from assocrank.embeddings import EmbeddingMatrix
from assocrank.search import top_k


def oracle_top_k(query, data, k):
    """Full 64-bit sort; ties break toward the lower row index."""
    scores = data.astype(np.float64) @ query.astype(np.float64)
    # sort by (-score, row) pairs explicitly
    order = sorted(range(len(scores)), key=lambda r: (-scores[r], r))
    return order[:k]


def matrix_from(data):
    return EmbeddingMatrix(ids=[f"p{i}" for i in range(data.shape[0])], data=data)


class TestTopK:
    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            n = int(rng.integers(1, 1001))
            d = int(rng.integers(2, 48))
            k = int(rng.integers(1, min(n, 50) + 1))
            data = rng.normal(size=(n, d)).astype(np.float32)
            if trial % 3 == 0 and n >= 4:
                # duplicated rows force exact score ties
                dup = rng.integers(0, n, size=max(2, n // 8))
                data[dup] = data[dup[0]]
            q = rng.normal(size=d).astype(np.float32)
            rows, _ = top_k(q, matrix_from(data), k)
            expected = oracle_top_k(q, data, k)
            assert rows.tolist() == expected

    def test_tied_rows_keep_ascending_row_order(self):
        data = np.tile(np.array([[1.0, 0.0]], dtype=np.float32), (6, 1))
        q = np.array([1.0, 0.0], dtype=np.float32)
        rows, _ = top_k(q, matrix_from(data), 4)
        assert rows.tolist() == [0, 1, 2, 3]

    def test_scores_are_descending(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(40, 6)).astype(np.float32)
        q = rng.normal(size=6).astype(np.float32)
        rows, s = top_k(q, matrix_from(data), 40)
        assert rows.dtype == np.int64 and s.dtype == np.float32
        assert rows.base is None  # owns its K entries, not a view of the full sort
        assert np.all(np.diff(s) <= 0)
        np.testing.assert_allclose(s, data[rows] @ q, rtol=1e-6, atol=1e-6)

    def test_k_out_of_range(self):
        m = matrix_from(np.eye(3, dtype=np.float32))
        q = np.ones(3, dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            top_k(q, m, 0)
        with pytest.raises(ValueError, match="out of range"):
            top_k(q, m, 4)

    @pytest.mark.parametrize("k", [5.0, 1.0, True, False, np.True_, "1", None, np.float32(2)], ids=repr)
    def test_k_of_the_wrong_type(self, k):
        m = matrix_from(np.eye(3, dtype=np.float32))
        with pytest.raises(ValueError) as info:
            top_k(np.ones(3, dtype=np.float32), m, k)
        assert str(info.value) == f"K must be an integer, got {k!r}"

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)], ids=repr)
    def test_numpy_integer_k(self, k):
        data = np.random.default_rng(4).normal(size=(6, 3)).astype(np.float32)
        q = np.ones(3, dtype=np.float32)
        rows, scores = top_k(q, matrix_from(data), k)
        want_rows, want_scores = top_k(q, matrix_from(data), 2)
        assert rows.tolist() == want_rows.tolist() and scores.tobytes() == want_scores.tobytes()

    def test_dim_mismatch(self):
        m = matrix_from(np.eye(3, dtype=np.float32))
        with pytest.raises(ValueError, match="does not match"):
            top_k(np.ones(5, dtype=np.float32), m, 1)

