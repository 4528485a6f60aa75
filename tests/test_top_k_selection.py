"""Partition-based top-K against the stable full sort it replaces.

The reference is the first K of `np.argsort(-(P @ q), kind="stable")`, with
the same float32 scores; rows and score bytes must match exactly on inputs
built to be tie-heavy.
"""

import numpy as np
import pytest

from assocrank.embeddings import EmbeddingMatrix
from assocrank.search import _top_rows, top_k


def matrix_from(data):
    return EmbeddingMatrix(ids=[f"p{i}" for i in range(data.shape[0])], data=data)


def assert_matches_stable_sort(query, data, k):
    scores = data @ query
    expected = np.argsort(-scores, kind="stable")[:k]
    rows, got = top_k(query, matrix_from(data), k)
    assert rows.dtype == np.int64 and got.dtype == np.float32
    assert rows.base is None and got.base is None
    assert rows.tolist() == expected.tolist()
    assert got.tobytes() == scores[expected].tobytes()


def cuts_a_tie_group(data, query, k):
    """True when the K-th score is shared by rows both inside and outside the top K."""
    scores = np.sort(-(data @ query))
    return k < scores.size and scores[k - 1] == scores[k]


class TestMatchesStableSort:
    def test_duplicated_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 600))
            d = int(rng.integers(1, 24))
            data = rng.normal(size=(n, d)).astype(np.float32)
            src = rng.integers(0, n, size=max(1, n // 3))
            dst = rng.integers(0, n, size=src.size)
            data[dst] = data[src]
            q = rng.normal(size=d).astype(np.float32)
            assert_matches_stable_sort(q, data, int(rng.integers(1, n + 1)))

    def test_integer_data_with_k_cutting_a_tie_group(self):
        rng = np.random.default_rng(32)
        cut = 0
        for _ in range(150):
            n = int(rng.integers(2, 800))
            d = int(rng.integers(1, 6))
            data = rng.integers(-2, 3, size=(n, d)).astype(np.float32)
            q = rng.integers(-2, 3, size=d).astype(np.float32)
            k = int(rng.integers(1, n + 1))
            cut += cuts_a_tie_group(data, q, k)
            assert_matches_stable_sort(q, data, k)
        assert cut >= 100  # most trials split a group of equal scores at K

    @pytest.mark.parametrize("which", ["one", "all"])
    def test_k_one_and_k_n(self, which):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n = int(rng.integers(1, 400))
            d = int(rng.integers(1, 8))
            data = rng.integers(-1, 2, size=(n, d)).astype(np.float32)
            q = rng.integers(-1, 2, size=d).astype(np.float32)
            assert_matches_stable_sort(q, data, 1 if which == "one" else n)

    def test_signed_zeros_and_infinities_in_the_data(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            d = int(rng.integers(1, 5))
            data = rng.choice(
                np.array([0.0, -0.0, 1.0, -1.0], dtype=np.float32), size=(n, d)
            )
            # an infinite entry times a non-zero query entry gives a +-inf score
            inf_rows = rng.integers(0, n, size=int(rng.integers(0, 4)))
            data[inf_rows] = 0.0
            infs = np.array([np.inf, -np.inf], dtype=np.float32)
            data[inf_rows, 0] = rng.choice(infs, size=inf_rows.size)
            q = rng.choice(np.array([1.0, -1.0, 2.0], dtype=np.float32), size=d)
            assert_matches_stable_sort(q, data, int(rng.integers(1, n + 1)))


class TestSelectionOnScores:
    """Score arrays built directly, to reach values such as -0.0 that a BLAS
    sum starting from +0.0 never returns."""

    def test_signed_zeros_infinities_and_nan_tail(self):
        rng = np.random.default_rng(35)
        values = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, np.nan], dtype=np.float32)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            scores = rng.choice(values, size=n)
            not_nan = int(np.count_nonzero(~np.isnan(scores)))
            if not_nan == 0:
                continue
            k = int(rng.integers(1, not_nan + 1))
            expected = np.argsort(-scores, kind="stable")[:k]
            assert _top_rows(scores, k).tolist() == expected.tolist()

    def test_too_few_non_nan_scores(self):
        scores = np.array([1.0, np.nan, 0.5, np.nan], dtype=np.float32)
        assert _top_rows(scores, 2).tolist() == [0, 2]
        with pytest.raises(ValueError, match=r"NaN for 2 of 4 passages, leaving fewer than K=3"):
            _top_rows(scores, 3)


class TestNaN:
    def test_nan_query_is_rejected(self):
        data = np.eye(4, dtype=np.float32)
        q = np.array([np.nan, 0.0, 0.0, 0.0], dtype=np.float32)
        with pytest.raises(ValueError, match="query scores are NaN for 4 of 4"):
            top_k(q, matrix_from(data), 1)

    def test_nan_rows_in_memory(self):
        # EmbeddingMatrix built in memory skips the file reader's finite check
        data = np.arange(12, dtype=np.float32).reshape(6, 2)
        data[[1, 4]] = np.nan
        m = matrix_from(data)
        q = np.ones(2, dtype=np.float32)
        rows, scores = top_k(q, m, 4)
        assert rows.tolist() == [5, 3, 2, 0]
        assert scores.tolist() == [21.0, 13.0, 9.0, 1.0]
        with pytest.raises(ValueError, match="NaN for 2 of 6 passages, leaving fewer than K=5"):
            top_k(q, m, 5)
