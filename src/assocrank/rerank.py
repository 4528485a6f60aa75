"""Blend dense similarity with learned association scores over a candidate pool.

Scoring modes, all built from the transform f:

    forward_only      f(q) . p
    reverse_only      f(p) . q
    both_transformed  f(q) . f(p)
    mixed_bidi        0.5 * (f(q) . p  +  f(p) . q)

The passage-side transform comes from a precomputed TransformedMatrix, so a
query costs one forward pass plus K dot products per direction. Pools can be
scored a block of queries at a time: the dense search then runs one GEMM for
the block, and each query still gets its own forward pass, so its pool is the
same as when it is scored alone. The final
ranking orders candidates by (1 - lambda) * sim + lambda * assoc with ties
broken toward the lower passage row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, TransformedMatrix, forward
from assocrank.search import QueryError, top_k

SCORING_MODES = ("forward_only", "reverse_only", "both_transformed", "mixed_bidi")


@dataclass
class RerankConfig:
    blend_lambda: float = 0.50
    pool_depth: int = 100
    cutoff: int = 5
    mode: str = "mixed_bidi"

    def validate(self) -> None:
        if not 0.0 <= self.blend_lambda <= 1.0:
            raise ValueError(f"blend_lambda must be in [0, 1], got {self.blend_lambda}")
        if self.pool_depth < 1:
            raise ValueError(f"pool_depth must be >= 1, got {self.pool_depth}")
        if not 1 <= self.cutoff <= self.pool_depth:
            raise ValueError(
                f"cutoff must be in [1, pool_depth={self.pool_depth}], got {self.cutoff}"
            )
        if self.mode not in SCORING_MODES:
            raise ValueError(f"mode must be one of {SCORING_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class RankedCandidate:
    passage_row: int
    sim: float
    assoc: float
    blended: float


@dataclass
class RerankResult:
    query_id: str
    entries: list[RankedCandidate]

    def to_json_dict(self, ids: list[str]) -> dict:
        return {
            "query_id": self.query_id,
            "ranking": [
                {
                    "passage_id": ids[e.passage_row],
                    "sim": e.sim,
                    "assoc": e.assoc,
                    "blended": e.blended,
                }
                for e in self.entries
            ],
        }


@dataclass
class ScoredPool:
    """A candidate pool with both score channels attached, dense order."""

    query_id: str
    rows: np.ndarray
    sims: np.ndarray
    assocs: np.ndarray


def _check_pool_inputs(
    passages: EmbeddingMatrix, transformed: TransformedMatrix, config: RerankConfig
) -> None:
    config.validate()
    if len(transformed.ids) != passages.rows:
        raise ValueError("transformed matrix does not match the passage matrix")


def _association_readout(
    query: np.ndarray,
    fq: np.ndarray,
    rows: np.ndarray,
    passages: EmbeddingMatrix,
    transformed: TransformedMatrix,
    mode: str,
) -> np.ndarray:
    """Association scores of the pool `rows` under a scoring mode, given f(q).

    Gathers only the pool rows of the matrices the mode reads."""
    if mode == "forward_only":
        assoc = passages.data[rows] @ fq
    elif mode == "reverse_only":
        assoc = transformed.data[rows] @ query
    elif mode == "both_transformed":
        assoc = transformed.data[rows] @ fq
    elif mode == "mixed_bidi":
        assoc = 0.5 * (passages.data[rows] @ fq + transformed.data[rows] @ query)
    else:
        raise ValueError(f"mode must be one of {SCORING_MODES}, got {mode!r}")
    return np.asarray(assoc, dtype=np.float32)


def _blend_order(
    rows: np.ndarray, sims: np.ndarray, assocs: np.ndarray, blend_lambda: float, cutoff: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pool positions of the blended top-`cutoff`, and the blended scores.

    Works along the last axis, so one call ranks one pool or a (Q, K) stack
    of them. Blends (1 - lambda) * sim + lambda * assoc; ties in the blended
    score break toward the lower passage row, matching dense retrieval.
    """
    blended = (1.0 - blend_lambda) * sims + blend_lambda * assocs
    return np.lexsort((rows, -blended))[..., :cutoff], blended


def score_pool(
    query_id: str | list[str],
    query: np.ndarray,
    passages: EmbeddingMatrix,
    transformed: TransformedMatrix,
    model: AssocModel,
    config: RerankConfig,
) -> ScoredPool | list[ScoredPool]:
    """Retrieve dense pools and attach association scores (dense order).

    One query (an id and a (d,) vector) gives its ScoredPool; a block (a
    sequence of Q ids and a (Q, d) array) gives a list of Q, each equal to
    that query's own pool.
    """
    _check_pool_inputs(passages, transformed, config)
    q = np.asarray(query, dtype=np.float32)
    ids = [query_id] if q.ndim == 1 else list(query_id)
    if q.ndim == 2 and len(ids) != q.shape[0]:
        raise ValueError(f"{len(ids)} query ids for {q.shape[0]} queries")
    try:
        rows, sims = top_k(q, passages, config.pool_depth)
    except ValueError as exc:
        # a fault of the whole call, such as K out of range, names the first query
        index = exc.index if isinstance(exc, QueryError) else 0
        raise ValueError(f"query {ids[index]!r}: {exc}") from None
    shape = (len(ids), -1)
    pools = []
    blocks = zip(ids, q.reshape(shape), rows.reshape(shape), sims.reshape(shape))
    for qid, qi, pool_rows, pool_sims in blocks:
        fq = forward(model, qi)
        assocs = _association_readout(qi, fq, pool_rows, passages, transformed, config.mode)
        pools.append(ScoredPool(query_id=qid, rows=pool_rows, sims=pool_sims, assocs=assocs))
    return pools[0] if q.ndim == 1 else pools


def rank_rows(scored: ScoredPool, blend_lambda: float, cutoff: int) -> np.ndarray:
    """Row indices of the blended top-`cutoff`, reusing precomputed scores."""
    order, _ = _blend_order(scored.rows, scored.sims, scored.assocs, blend_lambda, cutoff)
    return scored.rows[order]


def rerank_query(
    query_id: str,
    query: np.ndarray,
    passages: EmbeddingMatrix,
    transformed: TransformedMatrix,
    model: AssocModel,
    config: RerankConfig,
) -> RerankResult:
    """Full per-query pipeline: dense pool, association scores, blend."""
    scored = score_pool(query_id, query, passages, transformed, model, config)
    order, blended = _blend_order(
        scored.rows, scored.sims, scored.assocs, config.blend_lambda, config.cutoff
    )
    entries = [
        RankedCandidate(
            int(scored.rows[i]),
            float(scored.sims[i]),
            float(scored.assocs[i]),
            float(blended[i]),
        )
        for i in order
    ]
    return RerankResult(query_id=query_id, entries=entries)
