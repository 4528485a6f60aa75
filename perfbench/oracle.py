"""Float64 reference ranking for the README scoring setup (mode mixed_bidi).

The oracle shares no code with the product. It reads the parameters
straight from the `.aarm` checkpoint bytes (layout in the README), recomputes
the association transform in float64, scores every passage, and orders by
score with ties broken toward the lower row. The product computes in
float32, so two candidates whose float64 scores differ by at most TOL may
come out in either order; candidates whose float64 scores are exactly equal
must still be ordered by row.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

# float32 scoring error allowance. Measured product-vs-oracle score errors on
# the benchmark corpora stay below 1e-6, so this leaves a wide margin while
# still flagging any genuine misordering.
TOL = 2e-5

LN_EPS = 1e-5
DEGENERATE_NORM = 1e-12


def load_checkpoint64(path: str) -> dict:
    """Parameters of an `.aarm` checkpoint as float64 arrays."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"AARM" or len(raw) < 12:
        raise ValueError(f"{path}: not an AARM checkpoint")
    _version, dim = struct.unpack("<II", raw[4:12])
    flat = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64)
    if flat.size != 4 * (dim * dim + dim) + 6 * dim + 1:
        raise ValueError(f"{path}: payload does not match d={dim}")
    pos = 0

    def take(*shape):
        nonlocal pos
        size = math.prod(shape)
        out = flat[pos : pos + size].reshape(shape)
        pos += size
        return out

    layers = [(take(dim, dim), take(dim)) for _ in range(4)]
    norms = [(take(dim), take(dim)) for _ in range(3)]
    return {"layers": layers, "norms": norms, "alpha_raw": float(take(1)[0])}


def transform64(params: dict, x: np.ndarray) -> np.ndarray:
    """normalize(alpha*x + (1-alpha)*g(x)) per row, float64; degenerate rows are zero."""
    h = x
    for (w, b), (scale, shift) in zip(params["layers"][:3], params["norms"]):
        z = h @ w.T + b
        z = (z - z.mean(axis=1, keepdims=True)) / np.sqrt(z.var(axis=1, keepdims=True) + LN_EPS)
        y = z * scale + shift
        h = 0.5 * y * (1.0 + erf(y / math.sqrt(2.0)))
    w, b = params["layers"][3]
    alpha = 1.0 / (1.0 + math.exp(-params["alpha_raw"]))
    u = alpha * x + (1.0 - alpha) * (h @ w.T + b)
    norm = np.linalg.norm(u, axis=1, keepdims=True)
    return np.where(norm > DEGENERATE_NORM, u / np.where(norm > 0, norm, 1.0), 0.0)


class Oracle:
    def __init__(self, passages: np.ndarray, checkpoint: str, blend_lambda: float, pool_depth: int):
        self.params = load_checkpoint64(checkpoint)
        self.passages = np.asarray(passages, dtype=np.float64)
        blocks = np.array_split(self.passages, max(1, len(self.passages) // 4096))
        self.transformed = np.concatenate([transform64(self.params, b) for b in blocks])
        self.blend_lambda = blend_lambda
        self.pool_depth = pool_depth

    def rank_many(self, queries: np.ndarray, block: int = 16):
        """One OracleRanking per query row, in order."""
        for lo in range(0, len(queries), block):
            q = np.asarray(queries[lo : lo + block], dtype=np.float64)
            fq = transform64(self.params, q)
            sims = self.passages @ q.T
            assocs = 0.5 * (self.passages @ fq.T + self.transformed @ q.T)
            blended = (1.0 - self.blend_lambda) * sims + self.blend_lambda * assocs
            for j in range(q.shape[0]):
                yield self._ranking(sims[:, j], assocs[:, j], blended[:, j])

    def _ranking(self, sims, assocs, blended) -> "OracleRanking":
        # Every row scoring at least the depth-th score is sorted by
        # (-score, row): the same prefix a full stable sort gives, boundary
        # ties included.
        kth = np.partition(sims, -self.pool_depth)[-self.pool_depth]
        candidates = np.flatnonzero(sims >= kth)
        pool = candidates[np.lexsort((candidates, -sims[candidates]))][: self.pool_depth]
        reranked = pool[np.lexsort((pool, -blended[pool]))]
        return OracleRanking(sims, assocs, blended, pool, reranked)


@dataclass
class OracleRanking:
    sims: np.ndarray  # float64 scores of every row
    assocs: np.ndarray
    blended: np.ndarray
    pool: np.ndarray  # dense order, depth rows
    reranked: np.ndarray  # pool rows in blended order

    def dense_error(self, rows) -> str | None:
        """Why `rows` is not the dense pool in order, or None when it is."""
        return ranking_error(list(rows), list(self.pool), self.sims)

    def rerank_error(self, rows) -> str | None:
        """Why `rows` is not the blended top-len(rows), or None when it is."""
        rows = list(rows)
        floor = self.sims[self.pool[-1]] - TOL
        outside = [r for r in rows if self.sims[r] < floor]
        if outside:
            return f"row {outside[0]} is outside the dense pool"
        return ranking_error(rows, list(self.reranked[: len(rows)]), self.blended)


def ranking_error(got: list[int], want: list[int], score: np.ndarray, tol: float = TOL) -> str | None:
    """None when `got` equals `want` up to near-ties within `tol`, else the first difference.

    Rows with exactly equal scores are not near-ties: their order must follow
    the row index, as in `want`.
    """
    if len(got) != len(want):
        return f"{len(got)} rows where the oracle has {len(want)}"
    if len(set(got)) != len(got):
        return "duplicate rows"
    for pos, (g, w) in enumerate(zip(got, want)):
        if g == w:
            continue
        gap = abs(score[g] - score[w])
        if score[g] == score[w] or gap > tol:
            return f"position {pos}: row {g} where the oracle has row {w} (score gap {gap:.3g})"
    return None
