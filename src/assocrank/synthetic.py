"""Synthetic retrieval benchmark with a planted association structure.

Questions live in shared cluster directions. Each question gets one anchor
passage close to its query and, per extra hop, one bridge passage placed far
enough to sit outside the dense top ranks yet linked to the question through
the gold annotation, so co-occurrence training is the only way to recover it.

Bridge placement is calibrated so the expected dense rank of a bridge lands
near `bridge_offset_rank`: cluster-mate anchors occupy the first ranks and a
direction blend tuned through the normal quantile supplies the remaining
separation against the random distractor background. A per-bridge jitter on
the blend weight widens the rank distribution so a small fraction of bridges
starts inside the dense top-5: reranking then has headroom in both directions
(genuine association training promotes the far bridges, corrupted training
demotes the lucky ones).

When the corpus is too small to give every question its own gold passages,
cluster mates share one anchor and one bridge per hop level instead; the
duplicate gold annotations then collapse to one association pair per cluster.

Question splits are assigned by cluster parity, so the train and validation
halves occupy disjoint clusters and pair supervision for one half carries no
information about the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from assocrank.embeddings import EmbeddingMatrix
from assocrank.pairs import QuestionRecord

WITHIN_CLUSTER_SPREAD = 0.35
# relative sigma of the per-bridge blend-weight jitter
BRIDGE_RANK_JITTER = 0.07
# distractor rows are drawn and normalized in float64 blocks of this many
_DISTRACTOR_BLOCK = 16_384


@dataclass
class SyntheticSpec:
    n_passages: int = 5000
    dim: int = 64
    n_questions: int = 500
    hops: int = 2
    bridge_offset_rank: int = 10
    noise_scale: float = 0.1
    n_clusters: int | None = None
    seed: int = 42

    def validate(self) -> None:
        if self.dim < 8:
            raise ValueError(f"dim must be >= 8, got {self.dim}")
        if self.n_questions < 0:
            raise ValueError(f"n_questions must be >= 0, got {self.n_questions}")
        if not 2 <= self.hops <= 4:
            raise ValueError(f"hops must be in [2, 4], got {self.hops}")
        if self.bridge_offset_rank < 1 or self.bridge_offset_rank > self.n_passages:
            raise ValueError(
                f"bridge_offset_rank {self.bridge_offset_rank} out of range for "
                f"{self.n_passages} passages"
            )
        if not 0.0 <= self.noise_scale < math.inf:  # NaN fails it too
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")

    @property
    def clusters(self) -> int:
        if self.n_clusters is not None:
            if self.n_clusters < 1:
                raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
            return self.n_clusters
        return max(1, self.n_questions // 2)


@dataclass
class SyntheticData:
    passages: EmbeddingMatrix
    queries: EmbeddingMatrix
    records: list[QuestionRecord]
    texts: dict[str, str]


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    return arr / np.linalg.norm(arr, axis=-1, keepdims=True)


def _bridge_beta(spec: SyntheticSpec) -> float:
    """Blend weight toward the question direction such that the bridge's
    expected dense rank is bridge_offset_rank.

    Cluster-mate anchors (similarity ~1/(1+spread^2)) always outrank the
    bridge; the rest of the offset comes from random unit distractors whose
    similarities are ~N(0, 1/d), so the count above a level beta is
    n_passages * Q(beta * sqrt(d)).
    """
    mates = math.ceil(spec.n_questions / spec.clusters)
    target = max(spec.bridge_offset_rank - mates, 0.5)
    quantile = 1.0 - target / spec.n_passages
    beta = float(ndtri(quantile)) / math.sqrt(spec.dim)
    return float(np.clip(beta, 0.05, 0.9))


def _jittered_beta(spec: SyntheticSpec, rng: np.random.Generator, shape) -> np.ndarray:
    """Per-bridge blend weights spread around the calibrated value.

    The jitter is asymmetric: a short lower tail keeps every bridge inside
    the rerank candidate pool, while the longer upper tail lets a minority
    of bridges start inside the dense top-5.
    """
    beta0 = _bridge_beta(spec)
    z = np.clip(rng.standard_normal(shape), -1.5, 2.5)
    beta = beta0 * (1.0 + BRIDGE_RANK_JITTER * z)
    return np.clip(beta, 0.05, 0.9)


def generate_full(spec: SyntheticSpec) -> SyntheticData:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    d = spec.dim
    nq = spec.n_questions
    n_clusters = spec.clusters
    shared = spec.n_passages < nq * spec.hops
    spread = WITHIN_CLUSTER_SPREAD

    anchor_dirs = _unit_rows(rng.normal(size=(n_clusters, d)))
    bridge_dirs = _unit_rows(rng.normal(size=(spec.hops - 1, n_clusters, d)))

    cluster = np.arange(nq) % n_clusters
    u = _unit_rows(anchor_dirs[cluster] + spread * _unit_rows(rng.normal(size=(nq, d))))
    queries = _unit_rows(u + spec.noise_scale * _unit_rows(rng.normal(size=(nq, d))))

    if shared:
        # gold passages are per (cluster, level); mates reuse them
        n_gold = n_clusters * spec.hops
        if spec.n_passages < n_gold:
            raise ValueError(
                f"infeasible geometry: {spec.n_passages} passages cannot hold "
                f"{n_clusters} clusters x {spec.hops} shared gold passages"
            )
        anchors = _unit_rows(
            anchor_dirs + spec.noise_scale * _unit_rows(rng.normal(size=(n_clusters, d)))
        )
        beta = _jittered_beta(spec, rng, (spec.hops - 1, n_clusters, 1))
        bridges = np.empty((spec.hops - 1, n_clusters, d))
        for level in range(spec.hops - 1):
            w = bridge_dirs[level]
            w = _unit_rows(w - (w * anchor_dirs).sum(axis=1, keepdims=True) * anchor_dirs)
            bridges[level] = beta[level] * anchor_dirs + np.sqrt(1.0 - beta[level] ** 2) * w
        anchor_slot = cluster
        bridge_base = cluster
    else:
        n_gold = nq * spec.hops
        anchors = _unit_rows(u + spec.noise_scale * _unit_rows(rng.normal(size=(nq, d))))
        beta = _jittered_beta(spec, rng, (spec.hops - 1, nq, 1))
        bridges = np.empty((spec.hops - 1, nq, d))
        for level in range(spec.hops - 1):
            w = _unit_rows(
                bridge_dirs[level][cluster] + spread * _unit_rows(rng.normal(size=(nq, d)))
            )
            # exact orthogonal complement: bridge . u == beta by construction
            w = _unit_rows(w - (w * u).sum(axis=1, keepdims=True) * u)
            bridges[level] = beta[level] * u + np.sqrt(1.0 - beta[level] ** 2) * w
        anchor_slot = np.arange(nq)
        bridge_base = np.arange(nq)

    gold_rows = bridges.shape[1]
    # float32 from the start: writing a float64 row rounds it as a cast of
    # the finished corpus would, and no float64 copy of the corpus is made
    raw = np.empty((spec.n_passages, d), dtype=np.float32)
    raw[: len(anchors)] = anchors
    for level in range(spec.hops - 1):
        raw[gold_rows * (level + 1) : gold_rows * (level + 2)] = bridges[level]
    # drawn in blocks, which take the same stream as one draw of all rows
    for lo in range(n_gold, spec.n_passages, _DISTRACTOR_BLOCK):
        hi = min(lo + _DISTRACTOR_BLOCK, spec.n_passages)
        raw[lo:hi] = _unit_rows(rng.normal(size=(hi - lo, d)))

    placement = rng.permutation(spec.n_passages)
    data = np.empty_like(raw)
    data[placement] = raw
    del raw
    width = max(5, len(str(spec.n_passages - 1)))
    ids = [f"p{i:0{width}d}" for i in range(spec.n_passages)]
    passages = EmbeddingMatrix(ids=ids, data=data, normalized=True)

    qwidth = max(4, len(str(nq - 1)))
    qids = [f"q{i:0{qwidth}d}" for i in range(nq)]
    query_matrix = EmbeddingMatrix(
        ids=qids, data=queries.astype(np.float32), normalized=True
    )

    texts: dict[str, str] = {}
    records: list[QuestionRecord] = []
    for i in range(nq):
        c = int(cluster[i])
        gold_ids = [ids[placement[anchor_slot[i]]]]
        for level in range(spec.hops - 1):
            gold_ids.append(ids[placement[gold_rows * (level + 1) + bridge_base[i]]])
        answer = f"ans-{gold_ids[-1]}"
        texts[gold_ids[0]] = f"topic{c:03d} anchor passage {gold_ids[0]}"
        for level, gid in enumerate(gold_ids[1:]):
            tail = f" {answer}" if level == spec.hops - 2 else ""
            texts[gid] = f"edge{c:03d} hop{level + 1} passage {gid}{tail}"
        records.append(
            QuestionRecord(
                question_id=qids[i],
                question_text=f"topic{c:03d} question {qids[i]}",
                gold_passage_ids=gold_ids,
                gold_answer=answer,
                split="train" if c % 2 == 0 else "validation",
            )
        )
    for j in range(n_gold, spec.n_passages):
        pid = ids[placement[j]]
        texts[pid] = f"filler{j:05d} background passage {pid}"
    return SyntheticData(passages=passages, queries=query_matrix, records=records, texts=texts)
