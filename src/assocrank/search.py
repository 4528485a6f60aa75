"""Exact inner-product candidate retrieval.

Brute-force top-K over the full passage matrix. The dense score of passage p
for query q depends only on p and q, never on how many queries share a call:
the float32 x float32 products are taken in float64, where they are exact,
summed by numpy's reduction over the contiguous last axis, and rounded to
float32. Ties on equal scores break toward the lower row index, so pools are
fully deterministic.

Scoring every row that way would take a float64 pass over the corpus, so a
float32 prefilter picks the candidates: a matvec for one query or a block
of one, one GEMM for a larger block. Whatever order it sums in, its score
is within

    eps = (gamma_d + 2u) * max||p|| * ||q||  +  d * 2^-149

of the exact one (u = 2^-24, gamma_d = d*u / (1 - d*u); the last term covers
products that underflow). A row that can reach the exact top K then has a
prefilter score within 2 * eps of the prefilter's K-th best. Only the rows
in such a window, about K per query, are scored exactly and sorted. A query
whose prefilter could overflow or hold NaN is scored exactly on every row
instead.

Every search sets its windows by one rule, `_block_limits`, without a loop
over its queries. Each query's rows fall into groups of 16 strided rows; K
of the groups have a minimum negated score at or below the K-th smallest
group minimum, so K rows do, and that minimum is no better than the query's
K-th best score. Its window, up to 2 * eps past that minimum, holds every
row within 2 * eps of the K-th best, and so the exact top K, with a few more
rows: about 105 for K = 100. With fewer than 16 * K rows a partition finds
the K-th best itself. A split search merges the chunks' windows and sets
the final window by the same rule from their union, whose K-th best is the
K-th best over the whole matrix.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from assocrank.embeddings import EmbeddingMatrix
from assocrank.parallel import _pool_size, map_chunks

_U = 2.0**-24  # unit roundoff of float32
_UNDERFLOW = 2.0**-149  # the smallest float32 subnormal
# |prefilter partial sums| <= (1 + gamma_d) * ||p|| * ||q||, so below this
# bound on ||p|| * ||q|| no prefilter score overflows
_SAFE_BOUND = float(np.finfo(np.float32).max) / 2
_INF32 = np.float32(np.inf)
# a block of Q queries is searched in chunks of max(_CHUNK_ENTRIES // d,
# _CHUNK_ENTRIES // Q) rows, at most one share of the rows per thread: a
# block of 64 at d = 64 in chunks of 16,384 rows and 2^20 prefilter scores,
# one query in one share per thread. 64 queries on 100k rows and two threads
# searched faster in chunks of 16,384 rows than of 4,096 or 8,192, and about
# as fast as in chunks of 32,768 or 65,536. On 2 CPUs with BLAS on one
# thread, a one-query `rerank_query` on 100k rows took 0.69 ms with two
# halves and 0.76 ms with 16,384-row chunks
_CHUNK_ENTRIES = 1 << 20
# a block's chunk bounds its K-th best prefilter score by the K-th smallest
# minimum of groups of this many rows
_GROUP_SIZE = 16


class QueryError(ValueError):
    """A query that cannot be ranked; `index` is its row in the block."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def top_k(queries: np.ndarray, passages: EmbeddingMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-K of `passages` by dense score with each query.

    `queries` is one query of shape (d,) or a block of shape (Q, d). Returns
    (rows, scores): int64 row indices and their float32 scores, best first,
    of shape (K,) for one query and (Q, K) for a block. A query's result does
    not depend on the block it is in. K is an int or a numpy integer, not a
    bool. Raises QueryError when fewer than K of a query's scores are not
    NaN.

    Where `parallel` has helper threads, a matrix of more than
    `_CHUNK_ENTRIES` entries is searched in chunks of contiguous rows by
    `parallel.map_chunks`: one share per thread, cut smaller for a block of
    many queries. A chunk keeps, for each query, the rows whose
    prefilter score is within 2 * eps of a bound no better than the
    chunk's K-th best. The K-th best of those rows over all chunks is the
    K-th best over the whole matrix, and the final window is set from it
    by the same rule.
    """
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim not in (1, 2) or q.shape[-1] != passages.dim:
        raise ValueError(f"query shape {q.shape} does not match passage dim {passages.dim}")
    # a plain int skips the ABC check, which costs about 0.3 us
    if type(k) is not int and (isinstance(k, bool) or not isinstance(k, numbers.Integral)):
        raise ValueError(f"K must be an integer, got {k!r}")
    if not 1 <= k <= passages.rows:
        raise ValueError(f"K={k} out of range for {passages.rows} passages")
    data, d = passages.data, passages.dim
    block = q.reshape(-1, d)
    q64 = block.astype(np.float64)
    max_norm = passages.max_norm()
    # per query, eps of its prefilter, or None where the prefilter may
    # overflow or hold NaN and every row is scored exactly instead
    epsilons = []
    piece = max(1, _CHUNK_ENTRIES // d)
    # split only where a helper can take a share: run by the caller alone,
    # the chunks took 10-15% longer than one pass over a 100k x 64 matrix
    chunk_rows = passages.rows
    if passages.rows > piece and (threads := _pool_size(passages.rows)) > 1:
        share = -(-passages.rows // threads)
        chunk_rows = min(share, max(piece, _CHUNK_ENTRIES // max(1, len(block))))
    starts = range(0, passages.rows, chunk_rows)

    def scan(chunk: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per query, the chunk's candidate rows and their negated prefilter
        scores, or all its rows and their exact scores."""
        lo = starts[chunk]
        part = data[lo : lo + chunk_rows]
        if len(block) == 1 and bounded:
            # one query: one matvec, and a block's window rule
            neg = part @ negated[0]
            rows = (neg <= _block_limits(neg[None], k, epsilons[:1])[0]).nonzero()[0]
            return [(rows + lo, neg[rows])]
        windows = iter(())
        if bounded:
            neg = negated @ part.T
            limits = _block_limits(neg, k, [epsilons[i] for i in bounded])
            windows = iter(_windows(neg, limits, lo))
        found = []
        for i, eps in enumerate(epsilons):
            if eps is None:
                # in pieces, so that no float64 copy of the chunk is made
                pieces = range(0, len(part), piece)
                exact = np.concatenate([_exact_scores(part[at : at + piece], q64[i]) for at in pieces])
                found.append((np.arange(lo, lo + len(part)), exact))
            else:
                found.append(next(windows))
        return found

    results = []
    # a query whose scores overflow or hold NaN is handled below, not warned
    # of; the helpers run in a copy of this error state
    with np.errstate(over="ignore", invalid="ignore"):
        for query in q64:
            bound = max_norm * math.sqrt(query @ query)  # inf or NaN if not finite
            ok = bound <= _SAFE_BOUND
            epsilons.append((d * _U / (1.0 - d * _U) + 2.0 * _U) * bound + d * _UNDERFLOW if ok else None)
        bounded = [i for i, eps in enumerate(epsilons) if eps is not None]
        # the prefilter of the bounded queries. Negating a query negates
        # every product and partial sum exactly, so a partition of the
        # negated prefilter puts the best first
        negated = -block if len(bounded) == len(block) else -block[bounded]
        chunks = map_chunks(scan, len(starts))
        for i, eps in enumerate(epsilons):
            if len(chunks) == 1:
                rows, values = chunks[0][i]
            else:
                rows = np.concatenate([found[i][0] for found in chunks])
                values = np.concatenate([found[i][1] for found in chunks])
                if eps is not None:
                    rows = rows[values <= _block_limits(values[None], k, [eps])[0]]
            exact = values if eps is None else _exact_scores(data.take(rows, axis=0), q64[i])
            # rows ascend, so ties go to the lower row; NaN sorts last
            top = np.lexsort((rows, -exact))[:k]
            if math.isnan(exact[top[-1]]):
                raise QueryError(
                    i,
                    f"query scores are NaN for {int(np.isnan(exact).sum())} of {exact.size} "
                    f"passages, leaving fewer than K={k} to rank",
                )
            results.append((rows[top], exact[top]))
    if len(results) == 1:  # one query, as (K,) arrays or as a (1, K) view of them
        rows, scores = results[0]
        return (rows[None], scores[None]) if q.ndim == 2 else (rows, scores)
    rows = np.array([r for r, _ in results], dtype=np.int64).reshape(-1, k)
    return rows, np.array([s for _, s in results], dtype=np.float32).reshape(-1, k)


def _block_limits(neg: np.ndarray, k: int, epsilons: list[float]) -> np.ndarray:
    """Per query, a float32 limit at or above every negated prefilter score
    within 2 * eps of the K-th best: its scores are a row of the (Q, n)
    block `neg`, its eps in `epsilons`. With K or fewer scores, +inf. From a
    few whole-block calls."""
    queries, n = neg.shape
    if n <= k:
        return np.full(queries, _INF32)
    groups = n // _GROUP_SIZE
    if groups < k:
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1]
    else:
        # group j holds a query's scores j, j + groups, ..., j + 15 * groups.
        # K groups have a minimum at or below the K-th smallest group
        # minimum, so K scores do, and the query's K-th best is no larger
        minima = neg[:, : groups * _GROUP_SIZE].reshape(queries, _GROUP_SIZE, groups).min(axis=1)
        kth = np.partition(minima, k - 1, axis=1)[:, k - 1]
    # the sum in float64, rounded to float32: rounding moves it by at most
    # half a step, so one step up keeps every row within 2 * eps
    return np.nextafter((kth + 2.0 * np.array(epsilons)).astype(np.float32), _INF32)


def _windows(neg: np.ndarray, limits: np.ndarray, lo: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per query, the rows of its window and their negated prefilter
    scores: `neg` is the (Q, n) block of those scores for the rows from
    `lo` on, and a query's window is its scores at or below its limit. One
    compare and one `flatnonzero` over the whole block."""
    n = neg.shape[1]
    hits = np.flatnonzero(neg <= limits[:, None])
    query, rows = np.divmod(hits, n)
    rows += lo
    values = neg.take(hits)
    cuts = np.searchsorted(query, np.arange(1, len(neg))).tolist()
    return [(rows[a:b], values[a:b]) for a, b in zip([0, *cuts], [*cuts, len(hits)])]


def _exact_scores(rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
    """Dense scores of float32 `rows` with the float64 copy of a query."""
    products = rows.astype(np.float64)
    products *= q64
    return np.add.reduce(products, axis=-1).astype(np.float32)
