"""Exact inner-product candidate retrieval.

Brute-force top-K over the full passage matrix. Scores are float32 with
float32 accumulation; ties on equal scores break toward the lower row index
so pools are fully deterministic. The K-th best score is found by a
partition, and only the rows that tie or beat it are sorted, so a query
sorts about K rows instead of the whole corpus.
"""

from __future__ import annotations

import numpy as np

from assocrank.embeddings import EmbeddingMatrix


def top_k(query: np.ndarray, passages: EmbeddingMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-K of `passages` by inner product with `query`.

    Returns (rows, scores): int64 row indices and their float32 scores, best
    first. Raises ValueError when fewer than K scores are not NaN.
    """
    q = np.asarray(query, dtype=np.float32)
    if q.ndim != 1 or q.shape[0] != passages.dim:
        raise ValueError(f"query shape {q.shape} does not match passage dim {passages.dim}")
    if not 1 <= k <= passages.rows:
        raise ValueError(f"K={k} out of range for {passages.rows} passages")
    scores = passages.data @ q
    rows = _top_rows(scores, k)
    return rows, scores[rows]


def _top_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the K best `scores`, best first, ties toward the lower row:
    the first K of a stable sort of `-scores`, without sorting every row."""
    neg = -scores
    # the K-th smallest negated score; partition places NaN last, so a NaN
    # here means fewer than K scores are not NaN
    kth = np.partition(neg, k - 1)[k - 1]
    if np.isnan(kth):
        raise ValueError(
            f"query scores are NaN for {int(np.isnan(scores).sum())} of {scores.size} "
            f"passages, leaving fewer than K={k} to rank"
        )
    # every row that ties or beats the K-th score, so a tie group cut by K is
    # kept whole; ordering by (-score, row) then matches the stable sort, and
    # the fancy index gives an array that owns its K entries
    candidates = np.flatnonzero(neg <= kth)
    return candidates[np.lexsort((candidates, neg[candidates]))[:k]].astype(np.int64, copy=False)
