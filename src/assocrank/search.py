"""Exact inner-product candidate retrieval.

Brute-force top-K over the full passage matrix. The dense score of passage p
for query q depends only on p and q, never on how many queries share a call:
the float32 x float32 products are taken in float64, where they are exact,
summed by numpy's reduction over the contiguous last axis, and rounded to
float32. Ties on equal scores break toward the lower row index, so pools are
fully deterministic.

Scoring every row that way would take a float64 pass over the corpus, so a
float32 prefilter picks the candidates: a matvec for one query, or one GEMM
for a block of queries. Whatever order it sums in, its score is within

    eps = (gamma_d + 2u) * max||p|| * ||q||  +  d * 2^-149

of the exact one (u = 2^-24, gamma_d = d*u / (1 - d*u); the last term covers
products that underflow). A row that can reach the exact top K then has a
prefilter score within 2 * eps of the prefilter's K-th best, which a
partition finds. Only the rows in that window, about K per query, are
scored exactly and sorted. A query whose prefilter could overflow or hold
NaN is scored exactly on every row instead.
"""

from __future__ import annotations

import math

import numpy as np

from assocrank.embeddings import EmbeddingMatrix
from assocrank.parallel import _pool_size, map_chunks

_U = 2.0**-24  # unit roundoff of float32
_UNDERFLOW = 2.0**-149  # the smallest float32 subnormal
# |prefilter partial sums| <= (1 + gamma_d) * ||p|| * ||q||, so below this
# bound on ||p|| * ||q|| no prefilter score overflows
_SAFE_BOUND = float(np.finfo(np.float32).max) / 2
_INF32 = np.float32(np.inf)
# entries of the passage matrix per chunk: 4 MB of float32, 16,384 rows at
# d = 64, where 100k rows on two threads searched faster than in chunks of
# 4,096 or 8,192 rows and about as fast as in chunks of 32,768 or 65,536
_CHUNK_ENTRIES = 1 << 20


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
    not depend on the block it is in. Raises QueryError when fewer than K of
    a query's scores are not NaN.

    Where `parallel` has helper threads, a matrix of more than
    `_CHUNK_ENTRIES` entries is searched in chunks of contiguous rows by
    `parallel.map_chunks`. A chunk keeps, for each query, the rows whose
    prefilter score is within 2 * eps of the chunk's K-th best. The K-th
    best of those rows over all chunks is the K-th best over the whole
    matrix, so it sets the same window as an unsplit search would.
    """
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim not in (1, 2) or q.shape[-1] != passages.dim:
        raise ValueError(f"query shape {q.shape} does not match passage dim {passages.dim}")
    if not 1 <= k <= passages.rows:
        raise ValueError(f"K={k} out of range for {passages.rows} passages")
    data, d = passages.data, passages.dim
    block = q.reshape(-1, d)
    q64 = block.astype(np.float64)
    max_norm = passages.max_norm()
    # per query, eps of its prefilter, or None where the prefilter may
    # overflow or hold NaN and every row is scored exactly instead
    epsilons = []
    # negating the query negates every product and partial sum exactly, so a
    # partition of the negated prefilter puts the best first
    negated = -block
    piece = max(1, _CHUNK_ENTRIES // d)
    # split only where a helper can take a share: run by the caller alone,
    # the chunks took 10-15% longer than one pass over a 100k x 64 matrix
    chunk_rows = piece if passages.rows > piece and _pool_size(2) > 1 else passages.rows
    starts = range(0, passages.rows, chunk_rows)

    def scan(chunk: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per query, the chunk's candidate rows and their negated prefilter
        scores, or all its rows and their exact scores."""
        lo = starts[chunk]
        part = data[lo : lo + chunk_rows]
        neg = (part @ negated[0])[None, :] if q.ndim == 1 else negated @ part.T
        found = []
        for i, eps in enumerate(epsilons):
            if eps is None:
                # in pieces, so that no float64 copy of the chunk is made
                pieces = range(0, len(part), piece)
                exact = np.concatenate([_exact_scores(part[at : at + piece], q64[i]) for at in pieces])
                found.append((np.arange(lo, lo + len(part)), exact))
            else:
                rows = np.flatnonzero(neg[i] <= _limit(neg[i], k, eps))
                found.append((rows + lo, neg[i][rows]))
        return found

    results = []
    # a query whose scores overflow or hold NaN is handled below, not warned
    # of; the helpers run in a copy of this error state
    with np.errstate(over="ignore", invalid="ignore"):
        for query in q64:
            bound = max_norm * math.sqrt(query @ query)  # inf or NaN if not finite
            ok = bound <= _SAFE_BOUND
            epsilons.append((d * _U / (1.0 - d * _U) + 2.0 * _U) * bound + d * _UNDERFLOW if ok else None)
        chunks = map_chunks(scan, len(starts))
        for i, eps in enumerate(epsilons):
            if len(chunks) == 1:
                rows, values = chunks[0][i]
            else:
                rows = np.concatenate([found[i][0] for found in chunks])
                values = np.concatenate([found[i][1] for found in chunks])
                if eps is not None:
                    rows = rows[values <= _limit(values, k, eps)]
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
    if q.ndim == 1:
        return results[0]
    rows = np.array([r for r, _ in results], dtype=np.int64).reshape(-1, k)
    return rows, np.array([s for _, s in results], dtype=np.float32).reshape(-1, k)


def _limit(neg: np.ndarray, k: int, eps: float) -> np.float32:
    """The largest negated prefilter score within 2 * eps of the K-th best
    in `neg`: every row at or below it can reach the exact top K. With K or
    fewer scores, +inf."""
    if neg.size <= k:
        return _INF32
    limit = float(np.partition(neg, k - 1)[k - 1]) + 2.0 * eps
    # rounding to float32 moves the limit by at most half a step, so one step
    # up keeps every row within 2 * eps
    return np.nextafter(np.float32(limit), _INF32)


def _exact_scores(rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
    """Dense scores of float32 `rows` with the float64 copy of a query."""
    products = rows.astype(np.float64)
    products *= q64
    return np.add.reduce(products, axis=-1).astype(np.float32)
