"""Acceptance gate.

Thirteen checks, one test each, covering structural exactness (parameter
count, gradients, loss values, search oracle), qualitative behaviour on the
planted-association corpus (transductive gain, corrupted-pair degradation,
inductive gap), metric oracles, sweep structure, determinism, and latency
scaling. Each test emits a single bracketed PASS/FAIL line.
"""

import json
import math
import os
import re
import time

import numpy as np
import pytest
from gradcheck import gradient_check

from assocrank import evaluation
from assocrank.cli import main as cli_main
from assocrank.embeddings import EmbeddingMatrix
from assocrank.evaluation import (
    evaluate_system,
    lambda_sweep,
    paired_bootstrap_ci,
    pool_depth_sweep,
    qa_normalize,
    recall_at_k,
)
from assocrank.model import AssocModel, param_count, transform_matrix
from assocrank.pairs import QuestionRecord, extract_pairs, shuffle_pairs, similar_positive_pairs, split_policy
from assocrank.rerank import RerankConfig, rank_rows, score_pool
from assocrank.search import top_k
from assocrank.synthetic import SyntheticSpec, generate_full
from assocrank.training import TrainConfig, symmetric_ce_loss, train

BLEND_LAMBDA = 0.5
ACCEPT_TRAIN = dict(
    batch_size=128,
    temperature=0.2,
    learning_rate=3e-4,
    epochs=300,
    weight_decay=10.0,
    seed=0,
)


def verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def unit_rows(rng, shape):
    x = rng.normal(size=shape)
    return (x / np.linalg.norm(x, axis=-1, keepdims=True)).astype(np.float32)


@pytest.fixture(scope="module")
def corpus():
    return generate_full(SyntheticSpec())


def train_on(corpus, pair_set):
    model = AssocModel.initialize(corpus.passages.dim, seed=0)
    config = TrainConfig(**ACCEPT_TRAIN)
    model, _ = train(model, pair_set, corpus.passages, config)
    return model


@pytest.fixture(scope="module")
def transductive(corpus):
    started = time.perf_counter()
    model = train_on(corpus, extract_pairs(corpus.records))
    return model, time.perf_counter() - started


def recall5_pair(corpus, model, subset=None):
    """(baseline R@5, reranked R@5) at the default blend on a question subset."""
    passages = corpus.passages
    transformed = transform_matrix(model, passages)
    config = RerankConfig(blend_lambda=BLEND_LAMBDA)
    records = (
        corpus.records
        if subset is None
        else [r for r in corpus.records if r.question_id in subset]
    )
    wanted = {r.question_id for r in records}
    dense = {}
    reranked = {}
    for i, qid in enumerate(corpus.queries.ids):
        if qid not in wanted:
            continue
        pool = score_pool(qid, corpus.queries.data[i], passages, transformed, model, config)
        dense[qid] = [passages.ids[r] for r in pool.rows[:5]]
        reranked[qid] = [passages.ids[r] for r in rank_rows(pool, BLEND_LAMBDA, 5)]
    base = evaluate_system("dense", dense, records, ks=(5,)).recall_at[5]
    rer = evaluate_system("rerank", reranked, records, ks=(5,)).recall_at[5]
    return base, rer


def validation_qids(corpus):
    return {r.question_id for r in corpus.records if r.split == "validation"}


class TestAcceptance:
    def test_c01_parameter_count_production_width(self):
        started = time.perf_counter()
        model = AssocModel.initialize(1024, seed=0)
        count = param_count(model)
        elapsed = time.perf_counter() - started
        ok = count == 4_204_545 and elapsed < 1.0
        verdict("criterion 01", ok, f"d=1024 parameter count {count:,} in {elapsed:.3f}s")

    def test_c02_analytic_gradients_match_finite_differences(self):
        started = time.perf_counter()
        rng = np.random.default_rng(11)
        worst_overall = 0.0
        trials = 0
        for trial in range(20):
            d = int(rng.integers(4, 9))
            batch = int(rng.integers(2, 5))
            tau = float(rng.uniform(0.2, 1.0))
            model = AssocModel.initialize(d, seed=int(rng.integers(10_000)))
            # jitter every tensor so no gradient is trivially zero
            model.alpha_raw[:] = rng.uniform(-1.0, 1.0)
            for name, arr in model.param_items():
                if name.startswith(("ln", "b")):
                    arr += rng.normal(scale=0.15, size=arr.shape).astype(np.float32)
            xa = unit_rows(rng, (batch, d))
            xb = unit_rows(rng, (batch, d))
            negatives = None
            mode = "in_batch"
            if trial % 4 == 3:
                mode = "random_sampled"
                negatives = unit_rows(rng, (batch, 2, d))
            config = TrainConfig(temperature=tau, negative_mode=mode)
            errors = gradient_check(model, xa, xb, config, step=1e-5, negatives=negatives)
            assert {"alpha_raw", "ln0_scale", "ln2_shift"} <= set(errors)
            worst_overall = max(worst_overall, max(errors.values()))
            trials += 1
        elapsed = time.perf_counter() - started
        ok = trials >= 20 and worst_overall < 1e-4 and elapsed < 30.0
        verdict(
            "criterion 02",
            ok,
            f"{trials} configs, worst relative error {worst_overall:.2e} in {elapsed:.1f}s",
        )

    def test_c03_contrastive_loss_uniform_logit_value(self):
        worst = 0.0
        for b in (2, 8, 64):
            loss = symmetric_ce_loss(np.full((b, b), 0.37))
            worst = max(worst, abs(loss - math.log(b)))
        single = symmetric_ce_loss(np.zeros((1, 1)))
        ok = worst < 1e-9 and single == 0.0
        verdict("criterion 03", ok, f"uniform-logit loss off ln B by {worst:.1e}, B=1 gives {single}")

    def test_c04_saturated_gate_rerank_is_noop(self):
        started = time.perf_counter()
        rng = np.random.default_rng(23)
        passages = EmbeddingMatrix(
            ids=[f"p{i}" for i in range(2000)],
            data=unit_rows(rng, (2000, 32)),
            normalized=True,
        )
        queries = unit_rows(rng, (100, 32))
        model = AssocModel.initialize(32, seed=0)
        model.alpha_raw[:] = 20.0
        transformed = transform_matrix(model, passages)
        mismatches = 0
        checked = 0
        for mode in ("forward_only", "reverse_only", "both_transformed", "mixed_bidi"):
            config = RerankConfig(pool_depth=100, cutoff=10, mode=mode)
            for qi in range(queries.shape[0]):
                pool = score_pool(f"q{qi}", queries[qi], passages, transformed, model, config)
                dense_head = pool.rows[:10]
                for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                    checked += 1
                    if not np.array_equal(rank_rows(pool, lam, 10), dense_head):
                        mismatches += 1
        elapsed = time.perf_counter() - started
        ok = mismatches == 0 and elapsed < 10.0
        verdict(
            "criterion 04",
            ok,
            f"{checked} (query, lambda, mode) reranks, {mismatches} deviations from dense order in {elapsed:.1f}s",
        )

    def test_c05_top_k_matches_full_sort_oracle(self):
        rng = np.random.default_rng(17)
        checked = 0
        for trial in range(50):
            n = int(rng.integers(2, 1001))
            d = int(rng.integers(2, 33))
            k = int(min(rng.integers(1, 51), n))
            data = rng.normal(size=(n, d)).astype(np.float32)
            if trial % 3 == 0 and n >= 4:
                # plant exact duplicates so ties exercise the row-order rule
                src = rng.integers(0, n, size=n // 4)
                dst = rng.integers(0, n, size=n // 4)
                data[dst] = data[src]
            matrix = EmbeddingMatrix(ids=[f"p{i}" for i in range(n)], data=data)
            query = rng.normal(size=d).astype(np.float32)
            rows, _ = top_k(query, matrix, k)
            scores = data.astype(np.float64) @ query.astype(np.float64)
            expected = sorted(range(n), key=lambda r: (-scores[r], r))[:k]
            assert rows.tolist() == expected, f"trial {trial}"
            checked += 1
        verdict("criterion 05", checked == 50, f"{checked}/50 instances equal the 64-bit full sort")

    def test_c06_association_training_lifts_recall_transductive(self, corpus, transductive):
        model, train_seconds = transductive
        started = time.perf_counter()
        base, rer = recall5_pair(corpus, model)
        elapsed = train_seconds + (time.perf_counter() - started)
        delta = (rer - base) * 100
        ok = delta >= 15.0 and elapsed < 300.0
        verdict(
            "criterion 06",
            ok,
            f"baseline R@5 {base:.4f}, reranked {rer:.4f}, delta {delta:+.2f} points in {elapsed:.0f}s",
        )

    def test_c07_shuffled_pairs_degrade_below_baseline(self, corpus):
        pair_set = shuffle_pairs(extract_pairs(corpus.records), seed=7)
        model = train_on(corpus, pair_set)
        base, rer = recall5_pair(corpus, model)
        delta = (rer - base) * 100
        ok = rer < base
        verdict(
            "criterion 07",
            ok,
            f"shuffled-pair reranked R@5 {rer:.4f} vs baseline {base:.4f} ({delta:+.2f} points)",
        )

    def test_c08_similar_positive_pairs_do_not_help(self, corpus):
        real = extract_pairs(corpus.records)
        pair_set = similar_positive_pairs(corpus.passages, len(real.pairs))
        model = train_on(corpus, pair_set)
        base, rer = recall5_pair(corpus, model)
        delta = (rer - base) * 100
        ok = rer <= base + 0.01
        verdict(
            "criterion 08",
            ok,
            f"similar-positive reranked R@5 {rer:.4f} vs baseline {base:.4f} ({delta:+.2f} points)",
        )

    def test_c09_inductive_gap_vs_transductive(self, corpus, transductive):
        trans_model, _ = transductive
        val = validation_qids(corpus)
        base_t, rer_t = recall5_pair(corpus, trans_model, subset=val)
        trans_delta = (rer_t - base_t) * 100

        inductive_pairs = split_policy(extract_pairs(corpus.records), "inductive")
        ind_model = train_on(corpus, inductive_pairs)
        base_i, rer_i = recall5_pair(corpus, ind_model, subset=val)
        ind_delta = (rer_i - base_i) * 100

        gap = trans_delta - ind_delta
        ok = gap >= 10.0
        verdict(
            "criterion 09",
            ok,
            f"held-out delta transductive {trans_delta:+.2f} vs inductive {ind_delta:+.2f}, gap {gap:.2f} points",
        )

    def test_c10_metric_oracles_match_brute_force(self):
        rng = np.random.default_rng(31)

        def ref_normalize(text):
            text = text.lower()
            text = " ".join(t for t in text.split() if t not in ("a", "an", "the"))
            text = re.sub(r"[^\w\s]", "", text)
            return " ".join(text.split())

        mismatches = []

        universe = [f"p{i}" for i in range(40)]
        for _ in range(100):
            ranked = list(rng.permutation(universe)[: rng.integers(1, 30)])
            gold = list(rng.choice(universe, size=rng.integers(1, 5), replace=False))
            k = int(rng.integers(1, 25))
            want = len(set(gold) & set(ranked[:k])) / len(set(gold))
            if recall_at_k(ranked, gold, k) != want:
                mismatches.append("recall_at_k")

        vocab = ["alpha", "beta", "gamma", "delta!", "the", "a,", "42"]
        done = 0
        while done < 100:
            texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 6))) for _ in range(5)]
            answer = " ".join(rng.choice(vocab, size=rng.integers(1, 3)))
            if not ref_normalize(answer):
                continue
            k = int(rng.integers(1, 6))
            want = 1.0 if any(ref_normalize(answer) in ref_normalize(t) for t in texts[:k]) else 0.0
            # one question ranked over the texts, as `eval` scores coverage
            ids = [f"t{i}" for i in range(len(texts))]
            rec = QuestionRecord("q", "q", [ids[0]], answer, "validation")
            ev = evaluate_system("dense", {"q": ids}, [rec], (k,), dict(zip(ids, texts)))
            if ev.coverage_at[k] != want:
                mismatches.append("evaluate_system coverage")
            done += 1

        for _ in range(100):
            n = int(rng.integers(2, 30))
            deltas = rng.normal(size=n)
            seed = int(rng.integers(0, 10_000))
            got = paired_bootstrap_ci(deltas, resamples=200, seed=seed)
            idx = np.random.default_rng(seed).integers(0, n, size=(200, n))
            means = np.array([deltas[row].mean() for row in idx])
            want = (float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5)))
            if abs(got[0] - want[0]) > 1e-12 or abs(got[1] - want[1]) > 1e-12:
                mismatches.append("paired_bootstrap_ci")

        zero_ci = paired_bootstrap_ci(np.zeros(60), resamples=500, seed=3)
        if zero_ci != (0.0, 0.0):
            mismatches.append("zero-delta ci")
        if qa_normalize("The Big Apple!") != "big apple":
            mismatches.append("qa_normalize")

        ok = not mismatches
        verdict(
            "criterion 10",
            ok,
            "recall/coverage/bootstrap each match 100 brute-force fixtures"
            if ok
            else f"mismatches in {sorted(set(mismatches))}",
        )

    def test_c11_sweep_rows_respect_baseline_and_containment(self):
        rng = np.random.default_rng(41)
        passages = EmbeddingMatrix(
            ids=[f"p{i}" for i in range(1500)],
            data=unit_rows(rng, (1500, 32)),
            normalized=True,
        )
        model = AssocModel.initialize(32, seed=1)
        transformed = transform_matrix(model, passages)
        config = RerankConfig(pool_depth=100, cutoff=5)
        pools = []
        records = []
        for qi in range(40):
            query = unit_rows(rng, (32,))
            pool = score_pool(f"q{qi}", query, passages, transformed, model, config)
            pools.append(pool)
            gold_rows = rng.choice(1500, size=2, replace=False)
            records.append(
                QuestionRecord(
                    question_id=f"q{qi}",
                    question_text=f"q{qi}",
                    gold_passage_ids=[passages.ids[r] for r in gold_rows],
                    gold_answer="x",
                    split="validation",
                )
            )

        ks = (5, 10)
        rows = lambda_sweep(pools, passages.ids, records, [0.0, 0.3, 0.7, 1.0], ks)
        dense_rankings = {p.query_id: [passages.ids[r] for r in p.rows] for p in pools}
        dense = evaluate_system("dense", dense_rankings, records, ks)
        lambda_zero_exact = all(
            rows[0][f"recall_at_{k}"] == dense.recall_at[k] for k in ks
        )

        depths = [1, 2, 5, 10, 25, 50, 100]
        depth_rows = pool_depth_sweep(pools, passages.ids, records, depths, 0.5, ks)
        containment_ok = all(
            row[f"recall_at_{k}"] <= row["gold_in_pool"] + 1e-12
            for row in depth_rows
            for k in ks
        )
        ok = lambda_zero_exact and containment_ok
        verdict(
            "criterion 11",
            ok,
            f"lambda-0 row equals baseline: {lambda_zero_exact}; "
            f"containment bound holds at {len(depth_rows)} depths: {containment_ok}",
        )

    def test_c12_end_to_end_determinism(self, tmp_path):
        cfg = {
            "synth.n_passages": 250,
            "synth.dim": 16,
            "synth.n_questions": 24,
            "synth.seed": 9,
            "train.epochs": 12,
            "train.batch_size": 8,
            "train.temperature": 0.2,
            "train.learning_rate": 0.01,
            "train.weight_decay": 0.01,
            "train.seed": 4,
            "rerank.pool_depth": 50,
            "eval.ks": [5],
            "eval.resamples": 500,
        }
        artifacts = [
            "passages",
            "queries",
            "records",
            "texts",
            "pairs",
            "checkpoint",
            "rerank.out",
            "eval.out",
        ]
        ext = {
            "passages": ".aare",
            "queries": ".aare",
            "records": ".jsonl",
            "texts": ".jsonl",
            "pairs": ".tsv",
            "checkpoint": ".aarm",
            "rerank.out": ".jsonl",
            "eval.out": ".json",
        }

        def run(tag):
            root = tmp_path / tag
            sets = [f"{k}={json.dumps(v)}" for k, v in cfg.items()]
            sets += [f"{key}={root / (key.replace('.', '-') + ext[key])}" for key in artifacts]
            argv_tail = []
            for item in sets:
                argv_tail += ["--set", item]
            for command in ("synth", "pairs", "train", "rerank", "eval"):
                assert cli_main([command] + argv_tail) == 0, command
            return root

        root_a = run("a")
        root_b = run("b")
        diffs = []
        for key in artifacts:
            name = key.replace(".", "-") + ext[key]
            a = (root_a / name).read_bytes()
            b = (root_b / name).read_bytes()
            if key == "eval.out":
                pa, pb = json.loads(a), json.loads(b)
                pa.pop("timing")
                pb.pop("timing")
                if pa != pb:
                    diffs.append(key)
            elif a != b:
                diffs.append(key)
        ok = not diffs
        verdict(
            "criterion 12",
            ok,
            "two pipeline runs byte-identical modulo timing fields"
            if ok
            else f"runs differ in {diffs}",
        )

    def test_c13_latency_scales_linearly_with_pool_depth(self, tmp_path):
        paths = {
            "passages": tmp_path / "p.aare",
            "queries": tmp_path / "q.aare",
            "records": tmp_path / "r.jsonl",
            "pairs": tmp_path / "pairs.tsv",
            "checkpoint": tmp_path / "m.aarm",
            "bench.out": tmp_path / "bench.json",
        }
        # production-width embeddings keep the per-candidate cost well above
        # numpy dispatch overhead, so the depth ratio reflects the linear term
        base_sets = [f"{k}={v}" for k, v in paths.items()]
        plan = [
            ("synth", ["synth.dim=1024", "synth.n_questions=100"]),
            ("pairs", []),
            ("train", ["train.epochs=0", "train.batch_size=16"]),
            (
                "bench",
                [
                    "bench.pool_depths=[100, 200]",
                    "bench.n_queries=100",
                    "bench.warmup=2",
                    "bench.reps=3",
                ],
            ),
        ]
        for command, extra in plan:
            argv = [command]
            for item in base_sets + extra:
                argv += ["--set", item]
            assert cli_main(argv) == 0, command

        payload = json.loads(paths["bench.out"].read_text())
        required = {"candidate_retrieval", "association_scoring", "total"}
        keys_ok = all(
            required <= set(stats)
            and all({"mean_ms", "p50_ms", "p95_ms"} <= set(stats[name]) for name in required)
            for stats in payload["depths"].values()
        )
        # medians: one scheduler pause among the ~0.2 ms samples moves a mean
        # out of bounds, but not a median
        k100 = payload["depths"]["100"]["association_scoring"]["p50_ms"]
        k200 = payload["depths"]["200"]["association_scoring"]["p50_ms"]
        ratio = k200 / k100
        ok = keys_ok and 1.5 <= ratio <= 3.0
        verdict(
            "criterion 13",
            ok,
            f"association scoring median {k100:.3f}ms at depth 100, {k200:.3f}ms at depth 200, "
            f"ratio {ratio:.2f} (bounds [1.5, 3.0]); stage stats complete: {keys_ok}",
        )
