"""Retrieval metrics, ablation sweeps, and the latency benchmark.

Recall@k counts gold passages in the top k; Coverage@k checks whether the
normalized gold answer appears as a substring of any normalized top-k passage
text. The normalizer lowercases, drops standalone article tokens (a, an,
the), strips punctuation, collapses whitespace and trims.
Uncertainty on paired deltas comes from a seeded percentile bootstrap.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

import numpy as np

from assocrank import rerank
from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, TransformedMatrix
from assocrank.pairs import QuestionRecord
from assocrank.rerank import RerankConfig, ScoredPool

DEFAULT_KS = (5, 10, 20)
# the hit cutoff: a question is a hit when all its gold is in the top HIT_K
HIT_K = 5

_ARTICLES = {"a", "an", "the"}
_PUNCT = re.compile(r"[^\w\s]")


def qa_normalize(text: str) -> str:
    """Normalize an answer string. Idempotent."""
    out = text.lower()
    out = " ".join(tok for tok in out.split() if tok not in _ARTICLES)
    out = _PUNCT.sub("", out)
    out = " ".join(out.split())
    return out


def recall_at_k(ranked_ids: list[str], gold_ids: list[str], k: int) -> float:
    """Fraction of the gold set present in the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gold = set(gold_ids)
    if not gold:
        raise ValueError("empty gold set")
    return len(gold & set(ranked_ids[:k])) / len(gold)


def _answer_rank(ranked_texts: list[str], answer: str, limit: int) -> int:
    """0-based rank of the first of the top `limit` texts whose normalized
    form contains the normalized answer, or `limit` if none does."""
    needle = qa_normalize(answer)
    if not needle:
        raise ValueError("answer normalizes to the empty string")
    for rank, text in enumerate(ranked_texts[:limit]):
        if needle in qa_normalize(text):
            return rank
    return limit


@dataclass
class QuestionResult:
    question_id: str
    gold_ids: list[str]
    gold_ranks: dict[str, int | None]  # 1-based rank in the ranking, None if absent
    recall: dict[int, float]


@dataclass
class SystemEval:
    """Per-question and aggregate retrieval quality for one ranking source."""

    system: str
    questions: dict[str, QuestionResult]
    recall_at: dict[int, float]
    coverage_at: dict[int, float] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "system": self.system,
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "per_question": {
                qid: {
                    "gold_ids": qr.gold_ids,
                    "gold_ranks": qr.gold_ranks,
                    "recall": {str(k): v for k, v in qr.recall.items()},
                }
                for qid, qr in self.questions.items()
            },
        }
        if self.coverage_at is not None:
            out["coverage_at"] = {str(k): v for k, v in self.coverage_at.items()}
        return out


def evaluate_system(
    system: str,
    rankings: dict[str, list[str]],
    records: list[QuestionRecord],
    ks: tuple[int, ...] = DEFAULT_KS,
    texts: dict[str, str] | None = None,
) -> SystemEval:
    """Score one system's rankings against question records.

    Every record needs a ranking; coverage is computed only when passage
    texts are supplied.
    """
    if not records:
        raise ValueError("no records to evaluate")
    questions: dict[str, QuestionResult] = {}
    cov_acc = {k: 0.0 for k in ks} if texts is not None else None
    for rec in records:
        if rec.question_id not in rankings:
            raise ValueError(f"no ranking for question {rec.question_id!r}")
        ranked = rankings[rec.question_id]
        ranks: dict[str, int | None] = {}
        for gid in rec.gold_passage_ids:
            ranks[gid] = ranked.index(gid) + 1 if gid in ranked else None
        recall = {k: recall_at_k(ranked, rec.gold_passage_ids, k) for k in ks}
        if texts is not None:
            limit = max(ks, default=0)
            hit = _answer_rank([texts[pid] for pid in ranked[:limit]], rec.gold_answer, limit)
            for k in ks:
                cov_acc[k] += 1.0 if hit < k else 0.0
        questions[rec.question_id] = QuestionResult(
            question_id=rec.question_id,
            gold_ids=list(rec.gold_passage_ids),
            gold_ranks=ranks,
            recall=recall,
        )
    n = len(records)
    recall_agg = {k: sum(q.recall[k] for q in questions.values()) / n for k in ks}
    coverage_agg = {k: cov_acc[k] / n for k in ks} if cov_acc is not None else None
    return SystemEval(system=system, questions=questions, recall_at=recall_agg, coverage_at=coverage_agg)


def easy_hard_split(baseline: SystemEval) -> tuple[set[str], set[str]]:
    """Easy questions are fully solved by the baseline at the hit cutoff
    (R@HIT_K == 1)."""
    easy = {qid for qid, qr in baseline.questions.items() if qr.recall[HIT_K] == 1.0}
    hard = set(baseline.questions) - easy
    return easy, hard


def paired_bootstrap_ci(deltas: np.ndarray, resamples: int = 10000, seed: int = 0):
    """Percentile bootstrap CI (2.5th / 97.5th) for the mean paired delta.

    `deltas` is one (n,) array, which gives one (low, high) pair, or a
    (rows, n) array of deltas over the same n items, which gives a list of
    one pair per row. Every row is resampled with the same index draws, so
    each row's CI equals the CI of that row on its own with the same seed.
    """
    d = np.asarray(deltas, dtype=np.float64)
    if d.ndim not in (1, 2) or d.size == 0:
        raise ValueError("deltas must be a non-empty 1-D array or a 2-D array of rows")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    rows = d.reshape(-1, d.shape[-1])
    rng = np.random.default_rng(seed)
    means = np.empty((len(rows), resamples), dtype=np.float64)
    block = 1000
    for lo in range(0, resamples, block):
        hi = min(lo + block, resamples)
        idx = rng.integers(0, rows.shape[1], size=(hi - lo, rows.shape[1]))
        for row, out in zip(rows, means):
            out[lo:hi] = row[idx].mean(axis=1)
    cis = [(float(np.percentile(m, 2.5)), float(np.percentile(m, 97.5))) for m in means]
    return cis if d.ndim == 2 else cis[0]


@dataclass
class EvalReport:
    baseline: SystemEval
    reranked: SystemEval
    deltas: dict[int, dict[str, float]]  # k -> {delta, ci_low, ci_high}
    easy: dict[str, float]
    hard: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "systems": {
                self.baseline.system: self.baseline.to_json_dict(),
                self.reranked.system: self.reranked.to_json_dict(),
            },
            "deltas": {str(k): v for k, v in self.deltas.items()},
            "easy": self.easy,
            "hard": self.hard,
        }


def compare_systems(
    baseline: SystemEval,
    reranked: SystemEval,
    ks: tuple[int, ...] = DEFAULT_KS,
    resamples: int = 10000,
    seed: int = 0,
) -> EvalReport:
    """Paired comparison with bootstrap CIs and the easy/hard breakdown at
    the hit cutoff, which `ks` must include."""
    if set(baseline.questions) != set(reranked.questions):
        raise ValueError("systems evaluated on different question sets")
    if HIT_K not in ks:
        raise ValueError(f"ks {list(ks)} must include the hit cutoff {HIT_K}")
    qids = sorted(baseline.questions)
    per_q = np.array(
        [[reranked.questions[q].recall[k] - baseline.questions[q].recall[k] for q in qids] for k in ks]
    )
    cis = paired_bootstrap_ci(per_q, resamples=resamples, seed=seed)
    deltas = {
        k: {"delta": float(row.mean()), "ci_low": lo, "ci_high": hi}
        for k, row, (lo, hi) in zip(ks, per_q, cis)
    }

    easy_ids, hard_ids = easy_hard_split(baseline)

    def subset_stats(ids: set[str]) -> dict[str, float]:
        if not ids:
            return {"n": 0, "baseline_r5": float("nan"), "reranked_r5": float("nan"), "delta": float("nan")}
        base = float(np.mean([baseline.questions[q].recall[HIT_K] for q in ids]))
        rr = float(np.mean([reranked.questions[q].recall[HIT_K] for q in ids]))
        return {"n": len(ids), "baseline_r5": base, "reranked_r5": rr, "delta": rr - base}

    return EvalReport(
        baseline=baseline,
        reranked=reranked,
        deltas=deltas,
        easy=subset_stats(easy_ids),
        hard=subset_stats(hard_ids),
    )


def _stack_pools(
    pools: list[ScoredPool], ids: list[str], records: list[QuestionRecord]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pools as (Q, K) rows, sims and assocs, a (Q, K) mask of the pool
    slots that hold gold, and each query's gold count.

    Rows within a pool are distinct, as `score_pool` returns them, so any
    ranked prefix of the mask counts each gold passage at most once.
    """
    depths = sorted({len(p.rows) for p in pools})
    if len(depths) != 1:
        raise ValueError(f"pools must share one depth, got depths {depths}")
    by_qid = {rec.question_id: rec for rec in records}
    gold_sets = [set(by_qid[p.query_id].gold_passage_ids) for p in pools]
    if not all(gold_sets):
        raise ValueError("empty gold set")
    rows = np.stack([p.rows for p in pools])
    sims = np.stack([p.sims for p in pools])
    assocs = np.stack([p.assocs for p in pools])
    gold = np.array(
        [[ids[r] in g for r in row] for row, g in zip(rows.tolist(), gold_sets)], dtype=bool
    )
    return rows, sims, assocs, gold, np.array([len(g) for g in gold_sets])


def _recall_columns(
    row: dict, ranked_gold: np.ndarray, gold_counts: np.ndarray, ks: tuple[int, ...]
) -> dict:
    """`row` with a `recall_at_{k}` column per k: the mean over queries of the
    gold share in the first k slots of `ranked_gold`, a gold mask in rank order."""
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        row[f"recall_at_{k}"] = float(np.mean(ranked_gold[:, :k].sum(axis=1) / gold_counts))
    return row


def lambda_sweep(
    pools: list[ScoredPool],
    ids: list[str],
    records: list[QuestionRecord],
    lambdas: list[float],
    ks: tuple[int, ...] = DEFAULT_KS,
) -> list[dict]:
    """Recall table over blend weights, reusing one scored pool per query.

    The lambda = 0 row reproduces the dense baseline exactly: blending with
    weight zero leaves the float32 similarities untouched.
    """
    rows, sims, assocs, gold, gold_counts = _stack_pools(pools, ids, records)
    table = []
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        order, _ = rerank._blend_order(rows, sims, assocs, lam, max(ks))
        ranked_gold = np.take_along_axis(gold, order, axis=-1)
        table.append(_recall_columns({"lambda": lam}, ranked_gold, gold_counts, ks))
    return table


def pool_depth_sweep(
    pools: list[ScoredPool],
    ids: list[str],
    records: list[QuestionRecord],
    depths: list[int],
    blend_lambda: float,
    ks: tuple[int, ...] = DEFAULT_KS,
) -> list[dict]:
    """Recall table over pool truncation depths at a fixed blend weight.

    Pools are sim-ordered, so depth K' is the K'-prefix; recall at cutoff k
    can never exceed the fraction of gold inside the truncated pool.
    """
    rows, sims, assocs, gold, gold_counts = _stack_pools(pools, ids, records)
    table = []
    for depth in depths:
        if not 1 <= depth <= rows.shape[1]:
            raise ValueError(f"depth {depth} out of range (pool holds {rows.shape[1]})")
        order, _ = rerank._blend_order(
            rows[:, :depth], sims[:, :depth], assocs[:, :depth], blend_lambda, max(ks)
        )
        in_pool = gold[:, :depth]
        row = {"depth": depth, "gold_in_pool": float(np.mean(in_pool.sum(axis=1) / gold_counts))}
        ranked_gold = np.take_along_axis(in_pool, order, axis=-1)
        table.append(_recall_columns(row, ranked_gold, gold_counts, ks))
    return table


@dataclass
class MovementReport:
    """Where the blended ranking moved gold passages at the hit cutoff."""

    rescued: list[str]
    regressed: list[str]
    unchanged_hit: list[str]
    unchanged_miss: list[str]
    rescued_gold_ranks: dict[str, dict[str, list[int | None]]]
    miss_outside_pool_fraction: float

    def to_json_dict(self) -> dict:
        return {
            "counts": {
                "rescued": len(self.rescued),
                "regressed": len(self.regressed),
                "unchanged_hit": len(self.unchanged_hit),
                "unchanged_miss": len(self.unchanged_miss),
            },
            "rescued": self.rescued,
            "regressed": self.regressed,
            "rescued_gold_ranks": self.rescued_gold_ranks,
            "miss_outside_pool_fraction": self.miss_outside_pool_fraction,
        }


def rank_movement_report(
    baseline: SystemEval,
    reranked: SystemEval,
    pool_depth: int,
) -> MovementReport:
    """Classify questions by hit (all gold in the top HIT_K) transitions, with
    gold rank tables for the rescued set and the fraction of persistent
    misses explained by gold falling outside the candidate pool."""
    if set(baseline.questions) != set(reranked.questions):
        raise ValueError("systems evaluated on different question sets")
    for ev in (baseline, reranked):
        if HIT_K not in ev.recall_at:
            raise ValueError(f"system {ev.system!r} has no recall@{HIT_K}, the hit cutoff")
    rescued, regressed, kept, missed = [], [], [], []
    rescued_ranks: dict[str, dict[str, list[int | None]]] = {}
    outside = 0
    for qid in sorted(baseline.questions):
        b = baseline.questions[qid]
        r = reranked.questions[qid]
        b_hit = b.recall[HIT_K] == 1.0
        r_hit = r.recall[HIT_K] == 1.0
        if not b_hit and r_hit:
            rescued.append(qid)
            rescued_ranks[qid] = {
                gid: [b.gold_ranks.get(gid), r.gold_ranks.get(gid)] for gid in b.gold_ids
            }
        elif b_hit and not r_hit:
            regressed.append(qid)
        elif b_hit:
            kept.append(qid)
        else:
            missed.append(qid)
            if any(
                b.gold_ranks.get(gid) is None or b.gold_ranks[gid] > pool_depth
                for gid in b.gold_ids
            ):
                outside += 1
    frac = outside / len(missed) if missed else 0.0
    return MovementReport(
        rescued=rescued,
        regressed=regressed,
        unchanged_hit=kept,
        unchanged_miss=missed,
        rescued_gold_ranks=rescued_ranks,
        miss_outside_pool_fraction=frac,
    )


_STAGES = ("candidate_retrieval", "query_transform", "association_scoring", "blend_rank", "total")


@dataclass
class ComponentTiming:
    mean_ms: float
    p50_ms: float
    p95_ms: float


@dataclass
class LatencyStats:
    components: dict[str, ComponentTiming] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            name: {"mean_ms": t.mean_ms, "p50_ms": t.p50_ms, "p95_ms": t.p95_ms}
            for name, t in self.components.items()
        }


def latency_bench(
    model: AssocModel,
    passages: EmbeddingMatrix,
    transformed: TransformedMatrix,
    config: RerankConfig,
    queries: np.ndarray,
    depths: list[int],
    warmup: int = 2,
    reps: int = 3,
) -> dict[int, LatencyStats]:
    """Per-query wall time by pipeline stage at each pool depth, monotonic clock.

    Each depth runs `config` with that pool depth and a cutoff of at most the
    depth. Times the functions `rerank.score_pool` is built from. Stages:
    candidate_retrieval (dense top-K), query_transform (one forward pass),
    association_scoring (gather + per-candidate dot products), and
    blend_rank; total covers the whole query. `warmup` full passes run
    untimed, then every query is timed `reps` times. Each query runs at every
    depth back to back, so a slow or quick spell of the machine falls on all
    depths alike. Each stage reports the mean, median and 95th percentile of
    its samples at each depth.
    """
    rerank._check_pool_inputs(passages, transformed, config)
    if not depths or min(depths) < 1:
        raise ValueError(f"depths must be a non-empty list of depths >= 1, got {depths}")
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    if warmup < 0 or reps < 1:
        raise ValueError("warmup must be >= 0 and reps >= 1")
    qs = np.ascontiguousarray(queries, dtype=np.float32)
    mode, blend_lambda, cutoff = config.mode, config.blend_lambda, config.cutoff
    samples: dict[int, list[tuple[float, ...]]] = {depth: [] for depth in depths}
    for rep in range(warmup + reps):
        for q in qs:
            for depth, sink in samples.items():
                t0 = time.perf_counter()
                rows, sims = rerank.top_k(q, passages, depth)
                t1 = time.perf_counter()
                fq = rerank.forward(model, q)
                t2 = time.perf_counter()
                assocs = rerank._association_readout(q, fq, rows, passages, transformed, mode)
                t3 = time.perf_counter()
                rerank._blend_order(rows, sims, assocs, blend_lambda, min(cutoff, depth))
                t4 = time.perf_counter()
                if rep >= warmup:
                    sink.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4 - t0))
    out = {}
    for depth, sink in samples.items():
        ms = np.array(sink, dtype=np.float64) * 1e3
        p50, p95 = np.percentile(ms, [50, 95], axis=0)
        out[depth] = LatencyStats(
            {
                name: ComponentTiming(float(mean), float(mid), float(high))
                for name, mean, mid, high in zip(_STAGES, ms.mean(axis=0), p50, p95)
            }
        )
    return out
