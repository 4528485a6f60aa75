"""Exact inner-product candidate retrieval.

Brute-force top-K over the full passage matrix. Scores are float32 with
float32 accumulation; ties on equal scores break toward the lower row index
so pools are fully deterministic.
"""

from __future__ import annotations

import numpy as np

from assocrank.embeddings import EmbeddingMatrix


def top_k(query: np.ndarray, passages: EmbeddingMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-K of `passages` by inner product with `query`.

    Returns (rows, scores): int64 row indices and their float32 scores, best
    first.
    """
    q = np.asarray(query, dtype=np.float32)
    if q.ndim != 1 or q.shape[0] != passages.dim:
        raise ValueError(f"query shape {q.shape} does not match passage dim {passages.dim}")
    if not 1 <= k <= passages.rows:
        raise ValueError(f"K={k} out of range for {passages.rows} passages")
    scores = passages.data @ q
    # stable sort on the negated scores: equal scores keep ascending row order;
    # astype copies, so a kept pool does not hold the full N-row sort alive
    rows = np.argsort(-scores, kind="stable")[:k].astype(np.int64)
    return rows, scores[rows]
