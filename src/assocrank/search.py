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

_U = 2.0**-24  # unit roundoff of float32
_UNDERFLOW = 2.0**-149  # the smallest float32 subnormal
# |prefilter partial sums| <= (1 + gamma_d) * ||p|| * ||q||, so below this
# bound on ||p|| * ||q|| no prefilter score overflows
_SAFE_BOUND = float(np.finfo(np.float32).max) / 2
_INF32 = np.float32(np.inf)
# rows per chunk when a query is scored exactly on every row, so that no
# float64 copy of the corpus is made
_CHUNK_ROWS = 4096


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
    results = []
    # a query whose scores overflow or hold NaN is handled below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        # the prefilter, negated so a partition puts the best first; negating
        # the query negates every product and partial sum exactly
        neg = (data @ -q)[None, :] if q.ndim == 1 else -block @ data.T
        for i in range(len(block)):
            bound = max_norm * math.sqrt(q64[i] @ q64[i])  # inf or NaN if not finite
            if bound <= _SAFE_BOUND:
                eps = (d * _U / (1.0 - d * _U) + 2.0 * _U) * bound + d * _UNDERFLOW
                rows = _window(neg[i], k, eps)
                exact = _exact_scores(data.take(rows, axis=0), q64[i])
            else:
                # the prefilter may overflow or hold NaN: score every row exactly
                rows = np.arange(passages.rows)
                exact = np.concatenate(
                    [_exact_scores(data[lo : lo + _CHUNK_ROWS], q64[i]) for lo in rows[::_CHUNK_ROWS]]
                )
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


def _window(neg: np.ndarray, k: int, eps: float) -> np.ndarray:
    """Ascending rows whose negated prefilter score `neg` is within 2 * eps
    of the K-th best: every row that can reach the exact top K."""
    limit = float(np.partition(neg, k - 1)[k - 1]) + 2.0 * eps
    # rounding to float32 moves the limit by at most half a step, so one step
    # up keeps every row within 2 * eps
    return np.flatnonzero(neg <= np.nextafter(np.float32(limit), _INF32))


def _exact_scores(rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
    """Dense scores of float32 `rows` with the float64 copy of a query."""
    products = rows.astype(np.float64)
    products *= q64
    return np.add.reduce(products, axis=-1).astype(np.float32)
