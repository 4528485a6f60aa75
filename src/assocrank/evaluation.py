"""Retrieval metrics, ablation sweeps, and the latency benchmark.

Recall@k counts gold passages in the top k; Coverage@k checks whether the
normalized gold answer appears as a substring of any normalized top-k passage
text. Answer-string metrics share one normalizer: lowercase, drop standalone
article tokens (a, an, the), strip punctuation, collapse whitespace, trim.
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
from assocrank.rerank import RerankConfig, ScoredPool, rank_rows

DEFAULT_KS = (5, 10, 20)

_ARTICLES = {"a", "an", "the"}
_PUNCT = re.compile(r"[^\w\s]")


def qa_normalize(text: str) -> str:
    """Normalize an answer string. Idempotent."""
    out = text.lower()
    out = " ".join(tok for tok in out.split() if tok not in _ARTICLES)
    out = _PUNCT.sub("", out)
    out = " ".join(out.split())
    return out


def em_and_f1(prediction: str, gold: str) -> tuple[float, float]:
    """Exact match and token-multiset F1 over normalized strings.

    Both empty after normalization scores (1, 1); exactly one empty scores
    (0, 0).
    """
    p = qa_normalize(prediction)
    g = qa_normalize(gold)
    if not p and not g:
        return 1.0, 1.0
    if not p or not g:
        return 0.0, 0.0
    em = 1.0 if p == g else 0.0
    p_tokens = p.split()
    g_tokens = g.split()
    common = 0
    remaining = {}
    for tok in g_tokens:
        remaining[tok] = remaining.get(tok, 0) + 1
    for tok in p_tokens:
        if remaining.get(tok, 0) > 0:
            remaining[tok] -= 1
            common += 1
    if common == 0:
        return em, 0.0
    precision = common / len(p_tokens)
    recall = common / len(g_tokens)
    return em, 2.0 * precision * recall / (precision + recall)


def recall_at_k(ranked_ids: list[str], gold_ids: list[str], k: int) -> float:
    """Fraction of the gold set present in the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gold = set(gold_ids)
    if not gold:
        raise ValueError("empty gold set")
    return len(gold & set(ranked_ids[:k])) / len(gold)


def coverage_at_k(ranked_texts: list[str], answer: str, k: int) -> float:
    """1.0 if the normalized answer occurs in any normalized top-k text."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    needle = qa_normalize(answer)
    if not needle:
        raise ValueError("answer normalizes to the empty string")
    for text in ranked_texts[:k]:
        if needle in qa_normalize(text):
            return 1.0
    return 0.0


@dataclass
class QuestionResult:
    question_id: str
    gold_ids: list[str]
    gold_ranks: dict[str, int | None]  # 1-based rank in the ranking, None if absent
    recall: dict[int, float]
    coverage: dict[int, float] | None = None


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
        coverage = None
        if texts is not None:
            ranked_texts = [texts[pid] for pid in ranked]
            coverage = {k: coverage_at_k(ranked_texts, rec.gold_answer, k) for k in ks}
            for k in ks:
                cov_acc[k] += coverage[k]
        questions[rec.question_id] = QuestionResult(
            question_id=rec.question_id,
            gold_ids=list(rec.gold_passage_ids),
            gold_ranks=ranks,
            recall=recall,
            coverage=coverage,
        )
    n = len(records)
    recall_agg = {k: sum(q.recall[k] for q in questions.values()) / n for k in ks}
    coverage_agg = {k: cov_acc[k] / n for k in ks} if cov_acc is not None else None
    return SystemEval(system=system, questions=questions, recall_at=recall_agg, coverage_at=coverage_agg)


def easy_hard_split(baseline: SystemEval) -> tuple[set[str], set[str]]:
    """Easy questions are fully solved by the baseline at k=5 (R@5 == 1)."""
    easy = {qid for qid, qr in baseline.questions.items() if qr.recall.get(5) == 1.0}
    hard = set(baseline.questions) - easy
    return easy, hard


def paired_bootstrap_ci(
    deltas: np.ndarray, resamples: int = 10000, seed: int = 0
) -> tuple[float, float]:
    """Percentile bootstrap CI (2.5th / 97.5th) for the mean paired delta."""
    d = np.asarray(deltas, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("deltas must be a non-empty 1-D array")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    rng = np.random.default_rng(seed)
    means = np.empty(resamples, dtype=np.float64)
    block = 1000
    for lo in range(0, resamples, block):
        hi = min(lo + block, resamples)
        idx = rng.integers(0, d.size, size=(hi - lo, d.size))
        means[lo:hi] = d[idx].mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


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
    """Paired comparison with bootstrap CIs and the easy/hard breakdown."""
    if set(baseline.questions) != set(reranked.questions):
        raise ValueError("systems evaluated on different question sets")
    qids = sorted(baseline.questions)
    deltas: dict[int, dict[str, float]] = {}
    for k in ks:
        per_q = np.array(
            [reranked.questions[q].recall[k] - baseline.questions[q].recall[k] for q in qids]
        )
        lo, hi = paired_bootstrap_ci(per_q, resamples=resamples, seed=seed)
        deltas[k] = {"delta": float(per_q.mean()), "ci_low": lo, "ci_high": hi}

    easy_ids, hard_ids = easy_hard_split(baseline)

    def subset_stats(ids: set[str]) -> dict[str, float]:
        if not ids:
            return {"n": 0, "baseline_r5": float("nan"), "reranked_r5": float("nan"), "delta": float("nan")}
        base = float(np.mean([baseline.questions[q].recall[5] for q in ids]))
        rr = float(np.mean([reranked.questions[q].recall[5] for q in ids]))
        return {"n": len(ids), "baseline_r5": base, "reranked_r5": rr, "delta": rr - base}

    return EvalReport(
        baseline=baseline,
        reranked=reranked,
        deltas=deltas,
        easy=subset_stats(easy_ids),
        hard=subset_stats(hard_ids),
    )


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
    by_qid = {rec.question_id: rec for rec in records}
    rows = []
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        rankings = {}
        for pool in pools:
            ranked = rank_rows(pool, lam, max(ks))
            rankings[pool.query_id] = [ids[r] for r in ranked]
        row = {"lambda": lam}
        for k in ks:
            row[f"recall_at_{k}"] = float(
                np.mean(
                    [recall_at_k(rankings[q], by_qid[q].gold_passage_ids, k) for q in rankings]
                )
            )
        rows.append(row)
    return rows


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
    by_qid = {rec.question_id: rec for rec in records}
    max_depth = min(len(p.rows) for p in pools)
    rows = []
    for depth in depths:
        if not 1 <= depth <= max_depth:
            raise ValueError(f"depth {depth} out of range (pool holds {max_depth})")
        rankings = {}
        containment = []
        for pool in pools:
            truncated = ScoredPool(
                query_id=pool.query_id,
                rows=pool.rows[:depth],
                sims=pool.sims[:depth],
                assocs=pool.assocs[:depth],
            )
            ranked = rank_rows(truncated, blend_lambda, min(max(ks), depth))
            rankings[pool.query_id] = [ids[r] for r in ranked]
            gold = set(by_qid[pool.query_id].gold_passage_ids)
            inside = len(gold & {ids[r] for r in truncated.rows}) / len(gold)
            containment.append(inside)
        row = {"depth": depth, "gold_in_pool": float(np.mean(containment))}
        for k in ks:
            row[f"recall_at_{k}"] = float(
                np.mean(
                    [recall_at_k(rankings[q], by_qid[q].gold_passage_ids, k) for q in rankings]
                )
            )
        rows.append(row)
    return rows


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
    k: int = 5,
) -> MovementReport:
    """Classify questions by hit (all gold in top k) transitions, with gold
    rank tables for the rescued set and the fraction of persistent misses
    explained by gold falling outside the candidate pool."""
    if set(baseline.questions) != set(reranked.questions):
        raise ValueError("systems evaluated on different question sets")
    rescued, regressed, kept, missed = [], [], [], []
    rescued_ranks: dict[str, dict[str, list[int | None]]] = {}
    outside = 0
    for qid in sorted(baseline.questions):
        b = baseline.questions[qid]
        r = reranked.questions[qid]
        b_hit = b.recall.get(k) == 1.0
        r_hit = r.recall.get(k) == 1.0
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


@dataclass
class ComponentTiming:
    mean_ms: float
    p95_ms: float


@dataclass
class LatencyStats:
    components: dict[str, ComponentTiming] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            name: {"mean_ms": t.mean_ms, "p95_ms": t.p95_ms}
            for name, t in self.components.items()
        }


def latency_bench(
    model: AssocModel,
    passages: EmbeddingMatrix,
    transformed: TransformedMatrix,
    config: RerankConfig,
    queries: np.ndarray,
    warmup: int = 2,
    reps: int = 3,
) -> LatencyStats:
    """Per-query wall time by pipeline stage, monotonic clock.

    Times the functions `rerank.score_pool` is built from. Stages:
    candidate_retrieval (dense top-K), query_transform (one forward pass),
    association_scoring (gather + per-candidate dot products), and
    blend_rank; total covers the whole query. `warmup` full passes run
    untimed, then every query is timed `reps` times.
    """
    rerank._check_pool_inputs(passages, transformed, config)
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    if warmup < 0 or reps < 1:
        raise ValueError("warmup must be >= 0 and reps >= 1")
    qs = np.ascontiguousarray(queries, dtype=np.float32)

    def run_once(q, record, sink):
        t0 = time.perf_counter()
        rows, sims = rerank.top_k(q, passages, config.pool_depth)
        t1 = time.perf_counter()
        fq = rerank.forward(model, q, degenerate="zero")
        t2 = time.perf_counter()
        assocs = rerank._association_readout(q, fq, rows, passages, transformed, config.mode)
        t3 = time.perf_counter()
        rerank._blend_order(ScoredPool("", rows, sims, assocs), config.blend_lambda, config.cutoff)
        t4 = time.perf_counter()
        if record:
            sink["candidate_retrieval"].append(t1 - t0)
            sink["query_transform"].append(t2 - t1)
            sink["association_scoring"].append(t3 - t2)
            sink["blend_rank"].append(t4 - t3)
            sink["total"].append(t4 - t0)

    sink = {
        name: []
        for name in (
            "candidate_retrieval",
            "query_transform",
            "association_scoring",
            "blend_rank",
            "total",
        )
    }
    for _ in range(warmup):
        for q in qs:
            run_once(q, False, sink)
    for _ in range(reps):
        for q in qs:
            run_once(q, True, sink)
    stats = LatencyStats()
    for name, samples in sink.items():
        ms = np.asarray(samples, dtype=np.float64) * 1e3
        stats.components[name] = ComponentTiming(
            mean_ms=float(ms.mean()), p95_ms=float(np.percentile(ms, 95))
        )
    return stats
