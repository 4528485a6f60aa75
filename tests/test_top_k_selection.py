"""Partition-based top-K against a stable full sort of the dense score.

The reference is the first K of `np.argsort(-exact, kind="stable")`, where
`exact` is the dense score as `search` defines it, computed here one row at a
time: float64 products of the float32 entries, numpy's sum, rounded to
float32. Rows and score bytes must match exactly on inputs built to be
tie-heavy, and a query's result must not depend on the block of queries
it is searched in.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from assocrank import parallel, search
from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, transform_matrix
from assocrank.search import QueryError, _exact_scores, top_k


def matrix_from(data):
    return EmbeddingMatrix(ids=[f"p{i}" for i in range(data.shape[0])], data=data)


def exact_scores(data, query):
    """The dense score of every row, each row reduced on its own."""
    q = query.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(
            [np.add.reduce(row.astype(np.float64) * q) for row in data], dtype=np.float64
        ).astype(np.float32)


def assert_matches_stable_sort(query, data, k):
    scores = exact_scores(data, query)
    expected = np.argsort(-scores, kind="stable")[:k]
    rows, got = top_k(query, matrix_from(data), k)
    assert rows.dtype == np.int64 and got.dtype == np.float32
    assert rows.base is None and got.base is None
    assert rows.tolist() == expected.tolist()
    assert got.tobytes() == scores[expected].tobytes()


def cuts_a_tie_group(data, query, k):
    """True when the K-th score is shared by rows both inside and outside the top K."""
    scores = np.sort(-exact_scores(data, query))
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


def overflowing_matrix(scores):
    """A matrix whose exact scores with `overflowing_query()` are `scores`
    (a -0.0 comes out as +0.0, which ties the same), and whose prefilter may
    overflow, so `top_k` scores every row exactly: each row is (score,
    3e38), and the query's 0 in the second entry leaves the score alone
    while the 3e38 sets the largest row norm."""
    big = np.full(scores.size, 3e38, dtype=np.float32)
    return matrix_from(np.stack([scores.astype(np.float32), big], axis=1))


def overflowing_query():
    return np.array([1.0, 0.0], dtype=np.float32)


class TestSelectionOnScores:
    """Score arrays built directly, through rows whose prefilter overflows,
    to reach scores such as -inf and NaN tails."""

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
            rows, _ = top_k(overflowing_query(), overflowing_matrix(scores), k)
            assert rows.tolist() == expected.tolist()

    def test_too_few_non_nan_scores(self):
        scores = np.array([1.0, np.nan, 0.5, np.nan], dtype=np.float32)
        m = overflowing_matrix(scores)
        assert top_k(overflowing_query(), m, 2)[0].tolist() == [0, 2]
        with pytest.raises(ValueError, match=r"NaN for 2 of 4 passages, leaving fewer than K=3"):
            top_k(overflowing_query(), m, 3)


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


def exact_top_k(query, data, k):
    """The first K rows of a stable sort of the negated exact scores."""
    scores = exact_scores(data, query)
    rows = np.argsort(-scores, kind="stable")[:k]
    return rows, scores[rows]


class TestBlocks:
    @pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 64, 127, 128, 129, 256, 1024])
    def test_exact_score_of_a_row_does_not_depend_on_its_neighbours(self, d):
        rng = np.random.default_rng(d)
        data = rng.normal(size=(203, d)).astype(np.float32)
        q = rng.normal(size=d).astype(np.float32).astype(np.float64)
        alone = np.array([_exact_scores(data[r : r + 1], q)[0] for r in range(203)])
        for step in (1, 4, 16, 203):
            together = np.concatenate(
                [_exact_scores(data[lo : lo + step], q) for lo in range(0, 203, step)]
            )
            assert together.tobytes() == alone.tobytes(), step

    @pytest.mark.parametrize("n", [2000, 2001, 2002, 2003])
    def test_block_results_equal_single_queries(self, n):
        # N % 4 = 0..3, so some rows fall in BLAS's tail kernels
        rng = np.random.default_rng(n)
        d, k = 24, 37
        data = rng.normal(size=(n, d)).astype(np.float32)
        queries = rng.normal(size=(64, d)).astype(np.float32)
        queries[7] *= 1e-3  # queries of different norms share a block
        queries[9] = 0.0
        m = matrix_from(data)
        single = [top_k(q, m, k) for q in queries]
        for i, q in enumerate(queries):
            rows, scores = exact_top_k(q, data, k)
            assert single[i][0].tolist() == rows.tolist()
            assert single[i][1].tobytes() == scores.tobytes()
        for size in (1, 5, 16, 64):
            for lo in range(0, 64, size):
                rows, scores = top_k(queries[lo : lo + size], m, k)
                assert rows.shape == scores.shape == (min(size, 64 - lo), k)
                assert rows.dtype == np.int64 and scores.dtype == np.float32
                for j in range(rows.shape[0]):
                    assert rows[j].tolist() == single[lo + j][0].tolist()
                    assert scores[j].tobytes() == single[lo + j][1].tobytes()

    def test_many_rows_within_eps_of_the_kth_score(self):
        # 400 near-copies of one row, whose exact scores differ by about one
        # float32 step of the score: the prefilter misorders them, so the
        # window must hold many more than K rows to find the exact top K
        rng = np.random.default_rng(41)
        d, k = 64, 50
        q = rng.normal(size=d).astype(np.float32)
        near = (q.astype(np.float64) + 1e-6 * rng.normal(size=(400, d))).astype(np.float32)
        far = (0.1 * rng.normal(size=(600, d))).astype(np.float32)
        data = np.concatenate([near, far])[rng.permutation(1000)]
        m = matrix_from(data)
        rows, scores = top_k(q, m, k)
        expected_rows, expected_scores = exact_top_k(q, data, k)
        assert rows.tolist() == expected_rows.tolist()
        assert scores.tobytes() == expected_scores.tobytes()
        prefilter_rows = np.argsort(-(data @ q), kind="stable")[:k]
        assert prefilter_rows.tolist() != expected_rows.tolist()
        block_rows, block_scores = top_k(np.stack([q, q[::-1], q]), m, k)
        assert block_rows[0].tolist() == block_rows[2].tolist() == expected_rows.tolist()
        assert block_scores[2].tobytes() == expected_scores.tobytes()

    def test_a_nan_query_in_a_block_is_named_by_its_index(self):
        data = np.eye(4, dtype=np.float32)
        queries = np.ones((5, 4), dtype=np.float32)
        queries[3, 0] = np.nan
        with pytest.raises(QueryError, match="NaN for 4 of 4 passages") as info:
            top_k(queries, matrix_from(data), 2)
        assert info.value.index == 3

    def test_non_finite_prefilter_scores_every_row_exactly(self):
        # float32 products overflow here, but the float64 ones do not
        data = np.array([[3e30, -3e30], [1e30, 0.0], [0.0, 1e30]], dtype=np.float32)
        q = np.array([2e10, 2e10], dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(data @ q).all()
        rows, scores = top_k(q, matrix_from(data), 3)
        expected_rows, expected_scores = exact_top_k(q, data, 3)
        assert rows.tolist() == expected_rows.tolist() == [1, 2, 0]
        assert scores.tobytes() == expected_scores.tobytes()


def assert_equals_exact_top_k(queries, data, k, got):
    """`got` is top_k's result for one query or a block; each query's rows
    and score bytes must equal the stable sort of its exact scores."""
    rows, scores = got
    for i, q in enumerate(np.atleast_2d(queries)):
        expected_rows, expected_scores = exact_top_k(q, data, k)
        assert np.atleast_2d(rows)[i].tolist() == expected_rows.tolist()
        assert np.atleast_2d(scores)[i].tobytes() == expected_scores.tobytes()


class TestChunks:
    """The passages searched in chunks of contiguous rows on pools of two
    and three threads, and unsplit on a pool of one. `_CHUNK_ENTRIES` is
    shrunk to 16 rows of d = 4, except where a test says otherwise."""

    D, ROWS = 4, 16

    @pytest.fixture(params=[1, 2, 3])
    def threads(self, request, pool_of, monkeypatch):
        monkeypatch.setattr(search, "_CHUNK_ENTRIES", self.ROWS * self.D)
        pool_of(request.param)
        return request.param

    @pytest.mark.parametrize("n", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1, 7 * ROWS + 5])
    def test_rows_and_scores_equal_the_exact_reference(self, threads, n):
        rng = np.random.default_rng(n)
        # small integers, so that many scores tie, within and across chunks
        data = rng.integers(-2, 3, size=(n, self.D)).astype(np.float32)
        queries = rng.integers(-2, 3, size=(6, self.D)).astype(np.float32)
        m = matrix_from(data)
        # K = 6 leaves the last chunk of 2 * ROWS + 1 rows, and of ROWS + 1,
        # with fewer rows than K
        for k in sorted({1, 6, n // 2 + 1, n}):
            for q in queries:
                assert_equals_exact_top_k(q, data, k, top_k(q, m, k))
            assert_equals_exact_top_k(queries, data, k, top_k(queries, m, k))

    def test_real_chunk_size(self, pool_of):
        pool_of(2)
        d = 64
        rows = search._CHUNK_ENTRIES // d
        rng = np.random.default_rng(7)
        data = rng.normal(size=(2 * rows + 1, d)).astype(np.float32)
        queries = rng.normal(size=(3, d)).astype(np.float32)
        # the best rows sit in the last chunk, which holds one row, and on
        # both sides of the first boundary
        data[[rows - 1, rows, 2 * rows]] = queries[0] * 2
        m = matrix_from(data)
        for k in (1, 5, 100):
            assert_equals_exact_top_k(queries[0], data, k, top_k(queries[0], m, k))
            assert_equals_exact_top_k(queries, data, k, top_k(queries, m, k))
        assert top_k(queries[0], m, 3)[0].tolist() == [rows - 1, rows, 2 * rows]

    def test_equal_rows_across_a_boundary_go_to_the_lower_row(self, threads):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(4 * self.ROWS, self.D)).astype(np.float32)
        q = rng.normal(size=self.D).astype(np.float32)
        best = q * 4
        tied = [self.ROWS + 1, self.ROWS - 1, 3 * self.ROWS, self.ROWS]  # not in row order
        data[tied] = best
        m = matrix_from(data)
        for k in range(1, 5):
            rows, _ = top_k(q, m, k)
            assert rows.tolist() == sorted(tied)[:k]
            block_rows, _ = top_k(np.stack([q, -q, q]), m, k)
            assert block_rows[0].tolist() == block_rows[2].tolist() == sorted(tied)[:k]

    def test_a_non_finite_prefilter_in_a_block_scores_every_row_exactly(self, threads):
        rng = np.random.default_rng(5)
        n = 3 * self.ROWS + 2
        data = rng.normal(size=(n, self.D)).astype(np.float32)
        data[self.ROWS + 3] = [3e30, -3e30, 1e30, 0.0]
        queries = rng.normal(size=(4, self.D)).astype(np.float32)
        queries[2] = 2e10  # its float32 products overflow, its float64 ones do not
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(data @ queries[2]).all()
        m = matrix_from(data)
        for k in (1, 7, n):
            assert_equals_exact_top_k(queries, data, k, top_k(queries, m, k))

    def test_many_rows_within_eps_of_the_kth_score(self, threads, monkeypatch):
        # as in TestBlocks, with the near-copies in the second of two chunks,
        # so that its window, not only the union's, must reach 2 * eps
        monkeypatch.setattr(search, "_CHUNK_ENTRIES", 512 * 64)
        rng = np.random.default_rng(41)
        d, k = 64, 50
        q = rng.normal(size=d).astype(np.float32)
        near = (q.astype(np.float64) + 1e-6 * rng.normal(size=(400, d))).astype(np.float32)
        far = (0.1 * rng.normal(size=(600, d))).astype(np.float32)
        data = np.concatenate([far[:512], near, far[512:]])
        prefilter_rows = np.argsort(-(data @ q), kind="stable")[:k]
        assert prefilter_rows.tolist() != exact_top_k(q, data, k)[0].tolist()
        m = matrix_from(data)
        assert_equals_exact_top_k(q, data, k, top_k(q, m, k))
        queries = np.stack([q, q[::-1], q])
        assert_equals_exact_top_k(queries, data, k, top_k(queries, m, k))

    def test_a_nan_query_is_named_by_its_block_index(self, threads):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(3 * self.ROWS, self.D)).astype(np.float32)
        queries = rng.normal(size=(5, self.D)).astype(np.float32)
        queries[3, 1] = np.nan
        with pytest.raises(QueryError, match=f"NaN for {3 * self.ROWS} of {3 * self.ROWS}") as info:
            top_k(queries, matrix_from(data), 2)
        assert info.value.index == 3

    def test_a_held_helper_does_not_stall_a_search(self, pool_of, monkeypatch):
        # every helper of the pool, and one more thread, each run a chunk
        # that waits on `hold`; the search then finds no helper free
        monkeypatch.setattr(search, "_CHUNK_ENTRIES", self.ROWS * self.D)
        pool_of(2)
        helpers = parallel._POOL._helpers
        hold, started = threading.Event(), threading.Semaphore(0)

        def held(chunk):
            started.release()
            assert hold.wait(timeout=60)

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: helpers + 1)
        holder = threading.Thread(target=parallel.map_chunks, args=(held, helpers + 1))
        holder.start()
        try:
            for _ in range(helpers + 1):
                assert started.acquire(timeout=30)
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
            ran_on = []
            limit = search._limit

            def recording_limit(*args):
                ran_on.append(threading.get_ident())
                return limit(*args)

            monkeypatch.setattr(search, "_limit", recording_limit)
            rng = np.random.default_rng(8)
            data = rng.normal(size=(5 * self.ROWS, self.D)).astype(np.float32)
            q = rng.normal(size=self.D).astype(np.float32)
            found = {}
            searcher = threading.Thread(target=lambda: found.update(top=top_k(q, matrix_from(data), 3)))
            searcher.start()
            searcher.join(timeout=30)
            assert not searcher.is_alive()
            # the searching thread ran all 5 chunks, and then the union
            assert ran_on == [searcher.ident] * 6
            assert_equals_exact_top_k(q, data, 3, found["top"])
        finally:
            hold.set()
            holder.join(timeout=30)
        assert not holder.is_alive()

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork() beside threads
    def test_a_forked_child_searches_and_transforms(self, pool_of, monkeypatch):
        monkeypatch.setattr(search, "_CHUNK_ENTRIES", self.ROWS * self.D)
        pool_of(2)
        rng = np.random.default_rng(9)
        data = rng.normal(size=(5 * self.ROWS, self.D)).astype(np.float32)
        queries = rng.normal(size=(3, self.D)).astype(np.float32)
        m = matrix_from(data)
        model = AssocModel.initialize(self.D, seed=1)
        wide = matrix_from(rng.normal(size=(3000, self.D)).astype(np.float32))
        rows, scores = top_k(queries, m, 4)  # the parent's pool has started
        transformed = transform_matrix(model, wide).data
        pid = os.fork()
        if pid == 0:
            try:
                # two chunks that wait for each other need a live helper
                both = threading.Barrier(2, timeout=30)
                parallel.map_chunks(lambda chunk: both.wait(), 2)
                child_rows, child_scores = top_k(queries, m, 4)
                child_transformed = transform_matrix(model, wide).data
                same = (
                    child_rows.tobytes() == rows.tobytes()
                    and child_scores.tobytes() == scores.tobytes()
                    and child_transformed.tobytes() == transformed.tobytes()
                )
                os._exit(0 if same else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 60 s")
        assert os.waitstatus_to_exitcode(status[1]) == 0
