"""Blend dense similarity with learned association scores over a candidate pool.

Scoring modes, all built from the transform f:

    forward_only      f(q) . p
    reverse_only      f(p) . q
    both_transformed  f(q) . f(p)
    mixed_bidi        0.5 * (f(q) . p  +  f(p) . q)

The passage-side transform comes from a precomputed TransformedMatrix, so a
query costs one forward pass plus K dot products per direction. Pools are
scored a block of up to `_QUERY_BLOCK` queries at a time: one dense search
(a GEMM), one `forward` call and one readout per block. The forward pass
and the readout run as stacked matrix-vector products, one per query, so
a query's pool and scores are the same as when it is scored alone. The
final ranking orders candidates by (1 - lambda) * sim + lambda * assoc
with ties broken toward the lower passage row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, TransformedMatrix, forward
from assocrank.search import QueryError, top_k

SCORING_MODES = ("forward_only", "reverse_only", "both_transformed", "mixed_bidi")
# queries per dense search: a block's float32 score matrix is 64 x N
# (25.6 MB at N = 100k); the rows do not depend on the height
_QUERY_BLOCK = 64


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
    """The candidate pools of a block of queries with both score channels
    attached: row i of the (Q, K) arrays is query_ids[i]'s pool, dense order."""

    query_ids: list[str]
    rows: np.ndarray
    sims: np.ndarray
    assocs: np.ndarray


def _check_pool_inputs(
    passages: EmbeddingMatrix, transformed: TransformedMatrix, config: RerankConfig
) -> None:
    config.validate()
    if transformed.data.shape[0] != passages.rows:
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

    Takes one query, its f(q) and its (K,) pool, or a (Q, d) block of
    queries, their f(q) and their (Q, K) pools, and returns scores shaped
    as `rows`. Gathers only the pool rows of the matrices the mode reads.
    A pool's scores are one matrix-vector product per matrix read: (K, d) @
    (d, 1) for one query, a (Q, K, d) @ (Q, d, 1) stack for a block, which
    keeps each query's bits."""
    query, fq = query[..., None], fq[..., None]
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
    return np.asarray(assoc.reshape(rows.shape), dtype=np.float32)


def _blend_order(
    rows: np.ndarray, sims: np.ndarray, assocs: np.ndarray, blend_lambda: float, cutoff: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pool positions of the blended top-`cutoff`, and the blended scores.

    Works along the last axis, so one call ranks every pool of a (Q, K)
    block. Blends (1 - lambda) * sim + lambda * assoc; ties in the blended
    score break toward the lower passage row, matching dense retrieval.
    """
    blended = (1.0 - blend_lambda) * sims + blend_lambda * assocs
    return np.lexsort((rows, -blended))[..., :cutoff], blended


def score_pool(
    query_ids: list[str],
    queries: np.ndarray,
    passages: EmbeddingMatrix,
    transformed: TransformedMatrix,
    model: AssocModel,
    config: RerankConfig,
) -> ScoredPool:
    """Retrieve the dense pools of a (Q, d) block of queries and attach
    association scores (dense order).

    Each block of `_QUERY_BLOCK` queries is one `top_k` call, one `forward`
    call and one readout; a query's pool and scores do not depend on its
    block.
    """
    _check_pool_inputs(passages, transformed, config)
    q = np.asarray(queries, dtype=np.float32)
    ids = list(query_ids)
    if q.ndim != 2 or len(ids) != len(q):
        raise ValueError(f"{len(ids)} query ids for a block of shape {q.shape}")
    blocks = []
    # no queries make one empty block, whose (0, K) arrays top_k returns
    for lo in range(0, len(q) or 1, _QUERY_BLOCK):
        block = q[lo : lo + _QUERY_BLOCK]
        # a fault of the whole call, such as K out of range, names no query
        try:
            rows, sims = top_k(block, passages, config.pool_depth)
        except QueryError as exc:
            raise ValueError(f"query {ids[lo + exc.index]!r}: {exc}") from None
        fq = forward(model, block)
        assocs = _association_readout(block, fq, rows, passages, transformed, config.mode)
        blocks.append((rows, sims, assocs))
    # a lone block's arrays are kept as top_k and the readout made them
    rows, sims, assocs = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    return ScoredPool(query_ids=ids, rows=rows, sims=sims, assocs=assocs)


def rank_rows(scored: ScoredPool, blend_lambda: float, cutoff: int) -> np.ndarray:
    """(Q, cutoff) row indices of each pool's blended top-`cutoff`, reusing
    precomputed scores."""
    order, _ = _blend_order(scored.rows, scored.sims, scored.assocs, blend_lambda, cutoff)
    return np.take_along_axis(scored.rows, order, axis=-1)


def ranked_results(scored: ScoredPool, config: RerankConfig) -> list[RerankResult]:
    """Each pool's blended top-`config.cutoff` with its scores, in query order."""
    order, blended = _blend_order(
        scored.rows, scored.sims, scored.assocs, config.blend_lambda, config.cutoff
    )
    results = []
    pools = zip(scored.query_ids, order, scored.rows, scored.sims, scored.assocs, blended)
    for qid, top, rows, sims, assocs, blend in pools:
        picked = (rows[top].tolist(), sims[top].tolist(), assocs[top].tolist(), blend[top].tolist())
        results.append(RerankResult(qid, list(map(RankedCandidate, *picked))))
    return results


def rerank_query(
    query_id: str,
    query: np.ndarray,
    passages: EmbeddingMatrix,
    transformed: TransformedMatrix,
    model: AssocModel,
    config: RerankConfig,
) -> RerankResult:
    """Full per-query pipeline as a block of one: pool, association scores, blend."""
    scored = score_pool([query_id], np.asarray(query)[None], passages, transformed, model, config)
    return ranked_results(scored, config)[0]
