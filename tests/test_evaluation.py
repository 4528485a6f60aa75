"""Metrics, sweeps, movement reports, and the latency bench."""

import json
import math

import numpy as np
import pytest
from bootstrap_reference import sequential_bootstrap_ci
from hypothesis import given, settings
from hypothesis import strategies as st
from normalize_reference import reference_normalize

from assocrank import cli, evaluation
from assocrank.embeddings import EmbeddingMatrix
from assocrank.evaluation import (
    ComponentTiming,
    LatencyStats,
    compare_systems,
    easy_hard_split,
    evaluate_system,
    lambda_sweep,
    latency_bench,
    paired_bootstrap_ci,
    pool_depth_sweep,
    qa_normalize,
    rank_movement_report,
)
from assocrank.model import AssocModel, transform_matrix
from assocrank.pairs import QuestionRecord
from assocrank.rerank import RerankConfig, ScoredPool, rank_rows, score_pool


def unit_rows(data):
    """float32 rows scaled to unit L2 norm by their float64 norms."""
    norms = np.linalg.norm(data.astype(np.float64), axis=1, keepdims=True)
    return data / norms.astype(np.float32)


def record(qid, gold, split="validation", answer="x", text=""):
    return QuestionRecord(
        question_id=qid,
        question_text=text or f"question {qid}",
        gold_passage_ids=list(gold),
        gold_answer=answer,
        split=split,
    )


class TestQaNormalize:
    def test_hand_examples(self):
        assert qa_normalize("The Big Apple!") == "big apple"
        assert qa_normalize("") == ""
        assert qa_normalize("a  an the") == ""
        assert qa_normalize("A Tale, of Two Cities.") == "tale of two cities"

    def test_idempotent_on_random_strings(self):
        rng = np.random.default_rng(0)
        vocab = ["the", "a", "an", "Apple", "BIG-CITY", "42", "don't", "x!y", "  "]
        for _ in range(100):
            text = " ".join(rng.choice(vocab, size=rng.integers(0, 8)))
            once = qa_normalize(text)
            assert qa_normalize(once) == once

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["a", "A", "an", "An", "AN", "the", "The", "THE", "tHe", "theatre", "İ", "x!y"]),
                st.text(alphabet="aAnNtThHeE.,!?'-", max_size=4),
                st.text(alphabet=" \t\n\x1c\x1d\x1e\x1f\x85\xa0\u2009\u2028\u3000", min_size=1, max_size=3),
                st.text(max_size=4),
            ),
            max_size=12,
        ).map("".join)
    )
    def test_equals_the_four_pass_reference(self, text):
        assert qa_normalize(text) == reference_normalize(text)

    def test_articles_only_as_whole_tokens(self):
        # "theatre" keeps its leading "the"
        assert qa_normalize("theatre") == "theatre"
        assert qa_normalize("an anthem") == "anthem"


def brute_recall(ranked, gold, k):
    """The share of the distinct gold ids in the top k, from two sets."""
    return len(set(gold) & set(ranked[:k])) / len(set(gold))


def recall(ranked, gold, k):
    """Recall@k of one question ranked as `ranked`, as `evaluate_system`
    scores it for `eval`."""
    ev = evaluate_system("dense", {"q": ranked}, [record("q", gold)], ks=(k,))
    assert ev.questions["q"].recall == {k: ev.recall_at[k]}
    return ev.recall_at[k]


class TestRecallAtK:
    def test_hand_cases(self):
        ranked = ["A", "C", "B", "D", "E"]
        assert recall(ranked, ["A", "B"], 5) == 1.0
        assert recall(ranked, ["A", "Z"], 5) == 0.5
        assert recall(ranked, ["Z"], 5) == 0.0
        assert recall(ranked, ["B", "E"], 3) == 0.5

    def test_matches_brute_force_on_100_fixtures(self):
        rng = np.random.default_rng(2)
        universe = [f"p{i}" for i in range(40)]
        for _ in range(100):
            ranked = list(rng.permutation(universe)[: rng.integers(1, 30)])
            gold = list(rng.choice(universe, size=rng.integers(1, 5), replace=False))
            k = int(rng.integers(1, 25))
            assert recall(ranked, gold, k) == brute_recall(ranked, gold, k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        universe = [f"p{i}" for i in range(30)]
        for _ in range(20):
            ranked = list(rng.permutation(universe))
            gold = list(rng.choice(universe, size=3, replace=False))
            ev = evaluate_system("dense", {"q": ranked}, [record("q", gold)], ks=tuple(range(1, 31)))
            vals = list(ev.recall_at.values())
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_errors(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            recall(["A"], ["A"], 0)
        with pytest.raises(ValueError, match="empty gold set"):
            recall(["A"], [], 5)

    def test_gold_absent_from_the_ranking(self):
        ev = evaluate_system("dense", {"q": ["A", "B"]}, [record("q", ["Z", "B"])], ks=(1, 2, 5))
        assert ev.questions["q"].gold_ranks == {"Z": None, "B": 2}
        assert ev.recall_at == {1: 0.0, 2: 0.5, 5: 0.5}

    def test_repeated_ids_in_a_ranking(self):
        # a gold id ranks at its first place, and counts once
        ranked = ["X", "A", "X", "A", "B"]
        ev = evaluate_system("dense", {"q": ranked}, [record("q", ["A", "B"])], ks=(1, 2, 4, 5))
        assert ev.questions["q"].gold_ranks == {"A": 2, "B": 5}
        assert ev.recall_at == {k: brute_recall(ranked, ["A", "B"], k) for k in (1, 2, 4, 5)}
        assert ev.recall_at == {1: 0.0, 2: 0.5, 4: 0.5, 5: 1.0}

    def test_unvalidated_record_with_repeated_gold(self):
        # `record` skips `validate`; a repeated gold id counts once
        rec = record("q", ["A", "B", "A"])
        ev = evaluate_system("dense", {"q": ["A", "C", "D"]}, [rec], ks=(1, 3))
        assert ev.questions["q"].gold_ids == ["A", "B", "A"]
        assert ev.questions["q"].gold_ranks == {"A": 1, "B": None}
        assert ev.recall_at == {1: 0.5, 3: 0.5}


def coverage(texts, answer, k):
    """Coverage@k of one question ranked over `texts` in order, as
    `evaluate_system` scores it for `eval`."""
    ids = [f"t{i}" for i in range(len(texts))]
    ev = evaluate_system(
        "dense", {"q": ids}, [record("q", [ids[0]], answer=answer)], ks=(k,), texts=dict(zip(ids, texts))
    )
    return ev.coverage_at[k]


def scanned_texts(rankings, records, texts, limit):
    """The texts coverage normalizes: every answer, and each question's top
    `limit` texts in rank order up to the first that holds its answer."""
    out = {rec.gold_answer for rec in records}
    for rec in records:
        needle = qa_normalize(rec.gold_answer)
        for pid in rankings[rec.question_id][:limit]:
            out.add(texts[pid])
            if needle in qa_normalize(texts[pid]):
                break
    return out


class TestCoverageAtK:
    def test_hand_cases(self):
        texts = ["the answer is Paris.", "nothing here"]
        assert coverage(texts, "paris", 1) == 1.0
        assert coverage(texts, "The Paris!", 1) == 1.0
        assert coverage(["nothing", "still nothing"], "paris", 2) == 0.0

    def test_article_and_case_rules(self):
        assert coverage(["contains x here"], "The X", 1) == 1.0

    def test_rank_sensitivity(self):
        texts = ["nothing", "holds the key term"]
        assert coverage(texts, "key term", 1) == 0.0
        assert coverage(texts, "key term", 2) == 1.0

    def test_matches_brute_force_on_100_fixtures(self):
        rng = np.random.default_rng(4)
        vocab = ["alpha", "beta", "gamma", "delta", "the", "a"]
        for _ in range(100):
            texts = [
                " ".join(rng.choice(vocab, size=rng.integers(1, 6))) for _ in range(5)
            ]
            answer = " ".join(rng.choice(vocab, size=rng.integers(1, 3)))
            if not qa_normalize(answer):
                continue
            k = int(rng.integers(1, 6))
            needle = qa_normalize(answer)
            want = 1.0 if any(needle in qa_normalize(t) for t in texts[:k]) else 0.0
            assert coverage(texts, answer, k) == want

    def test_monotone_in_k(self):
        texts = ["a", "b", "needle", "c"]
        vals = [coverage(texts, "needle", k) for k in range(1, 5)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_errors(self):
        with pytest.raises(ValueError, match="k must be"):
            coverage(["text"], "x", 0)
        with pytest.raises(ValueError, match="empty string"):
            coverage(["text"], "the a an", 1)


class TestBootstrap:
    def test_all_equal_deltas_degenerate_ci(self):
        lo, hi = paired_bootstrap_ci(np.full(50, 0.25)[None], resamples=500, seed=1)[0]
        assert (lo, hi) == (0.25, 0.25)

    def test_all_zero_deltas(self):
        lo, hi = paired_bootstrap_ci(np.zeros(100)[None], resamples=1000, seed=0)[0]
        assert (lo, hi) == (0.0, 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=80)
        a = paired_bootstrap_ci(d[None], resamples=2000, seed=7)[0]
        b = paired_bootstrap_ci(d[None], resamples=2000, seed=7)[0]
        assert a == b
        c = paired_bootstrap_ci(d[None], resamples=2000, seed=8)[0]
        assert a != c

    def test_close_to_analytic_normal_ci(self):
        rng = np.random.default_rng(6)
        d = rng.normal(loc=0.3, scale=1.0, size=400)
        lo, hi = paired_bootstrap_ci(d[None], resamples=10_000, seed=2)[0]
        se = d.std(ddof=1) / math.sqrt(d.size)
        a_lo = d.mean() - 1.96 * se
        a_hi = d.mean() + 1.96 * se
        width = a_hi - a_lo
        assert abs(lo - a_lo) < 0.05 * width
        assert abs(hi - a_hi) < 0.05 * width

    def test_matches_reference_resampler_on_fixtures(self):
        # single-block resamples consume the generator exactly once, so an
        # independent reimplementation with the same seed must agree
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(2, 30))
            d = rng.normal(size=n)
            seed = int(rng.integers(0, 10_000))
            got = paired_bootstrap_ci(d[None], resamples=200, seed=seed)[0]
            ref_rng = np.random.default_rng(seed)
            idx = ref_rng.integers(0, n, size=(200, n))
            means = np.array([d[row].mean() for row in idx])
            want = (float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5)))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("resamples", [1, 999, 1000, 1001, 10_000])
    def test_equals_the_sequential_loop(self, pool_of, threads, resamples):
        # the next block's draws run beside this block's means; the CIs must
        # be those of drawing and averaging one block after another
        pool_of(threads)
        rng = np.random.default_rng(resamples)
        for deltas in (rng.normal(size=37)[None], rng.integers(-2, 3, size=(3, 150)) / 4):
            got = paired_bootstrap_ci(deltas, resamples=resamples, seed=11)
            assert got == sequential_bootstrap_ci(deltas, resamples=resamples, seed=11)

    def test_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            paired_bootstrap_ci(np.array([]))
        with pytest.raises(ValueError, match="2-D"):
            paired_bootstrap_ci(np.ones(3))
        with pytest.raises(ValueError, match="resamples"):
            paired_bootstrap_ci(np.ones(3)[None], resamples=0)


def rankings_fixture():
    records = [
        record("q1", ["A", "B"], answer="paris"),
        record("q2", ["C"], answer="tokyo"),
        record("q3", ["D", "E"], answer="cairo"),
    ]
    baseline = {
        "q1": ["A", "B", "X", "Y", "Z"],   # hit
        "q2": ["X", "Y", "Z", "W", "V"],   # miss, C absent entirely
        "q3": ["D", "X", "Y", "Z", "W"],   # half
    }
    reranked = {
        "q1": ["A", "X", "B", "Y", "Z"],   # still hit
        "q2": ["C", "Y", "Z", "W", "V"],   # rescued
        "q3": ["X", "D", "Y", "Z", "W"],   # still half
    }
    return records, baseline, reranked


class TestEvaluateSystem:
    def test_per_question_and_aggregate(self):
        records, baseline, _ = rankings_fixture()
        ev = evaluate_system("dense", baseline, records, ks=(5,))
        assert ev.recall_at[5] == pytest.approx((1.0 + 0.0 + 0.5) / 3)
        q1 = ev.questions["q1"]
        assert q1.gold_ranks == {"A": 1, "B": 2}
        assert ev.questions["q2"].gold_ranks == {"C": None}

    def test_repeated_question_rejected(self):
        # a repeated record would count twice in the mean but once in the
        # per-question table and the bootstrap
        records, baseline, _ = rankings_fixture()
        with pytest.raises(ValueError, match="duplicate question_id 'q1'"):
            evaluate_system("dense", baseline, records + records[:1], ks=(5,))

    def test_coverage_needs_texts(self):
        records, baseline, _ = rankings_fixture()
        texts = {pid: f"text about {pid}" for pid in "ABCDEXYZWV"}
        texts["A"] = "the capital is Paris"
        ev = evaluate_system("dense", baseline, records, ks=(5,), texts=texts)
        assert ev.coverage_at[5] == pytest.approx(1 / 3)
        plain = evaluate_system("dense", baseline, records, ks=(5,))
        assert plain.coverage_at is None

    def test_coverage_normalizes_each_text_once(self, monkeypatch):
        # coverage at every k equals a brute-force scan, and the call
        # normalizes each distinct answer and scanned text once
        rng = np.random.default_rng(14)
        vocab = ["alpha", "beta", "gamma", "delta", "the"]
        texts = {f"p{i}": " ".join(rng.choice(vocab, size=3)) for i in range(30)}
        records, rankings = [], {}
        for qi in range(40):
            records.append(record(f"q{qi}", ["p0"], answer=" ".join(rng.choice(vocab[:4], size=2))))
            rankings[f"q{qi}"] = [f"p{i}" for i in rng.permutation(30)]
        ks = (1, 2, 5, 8)

        def covered(rec, k):
            needle = qa_normalize(rec.gold_answer)
            return any(needle in qa_normalize(texts[p]) for p in rankings[rec.question_id][:k])

        want = {k: sum(covered(r, k) for r in records) / len(records) for k in ks}
        calls = []
        real = evaluation.qa_normalize
        monkeypatch.setattr(evaluation, "qa_normalize", lambda t: calls.append(t) or real(t))
        ev = evaluate_system("dense", rankings, records, ks=ks, texts=texts)
        assert ev.coverage_at == want
        assert sorted(calls) == sorted(scanned_texts(rankings, records, texts, max(ks)))
        with pytest.raises(ValueError, match="empty string"):
            evaluate_system("dense", rankings, [record("q0", ["p0"], answer="the")], ks, texts)

    def test_a_shared_cache_gives_the_same_coverage(self):
        # articles, punctuation, case, non-ASCII and texts repeated under
        # several ids, ranked by two systems that share one cache
        texts = {
            "p0": "The Café, in PARIS!",
            "p1": "An apple a day...",
            "p2": "naïve RÉSUMÉ — the end",
            "p3": "The Café, in PARIS!",
            "p4": "Ünïcode: Straße; the X",
            "p5": "nothing at all",
            "p6": "An apple a day...",
        }
        records = [
            record("q0", ["p0"], answer="the café"),
            record("q1", ["p1"], answer="APPLE DAY"),
            record("q2", ["p2"], answer="résumé the end"),
            record("q3", ["p4"], answer="straße x"),
            record("q4", ["p5"], answer="the café"),
        ]
        rng = np.random.default_rng(15)
        systems = [{rec.question_id: list(rng.permutation(list(texts))) for rec in records} for _ in range(2)]
        ks = (1, 2, 4)
        shared: dict = {}
        for rankings in systems:
            want = evaluate_system("dense", rankings, records, ks, texts)
            got = evaluate_system("dense", rankings, records, ks, texts, shared)
            assert got.coverage_at == want.coverage_at
            assert got.to_json_dict() == want.to_json_dict()
        assert set(shared) == set().union(*(scanned_texts(r, records, texts, max(ks)) for r in systems))
        assert all(shared[text] == qa_normalize(text) for text in shared)

    def test_coverage_reads_the_shared_cache(self):
        # a text already in the cache is not normalized again
        texts = {"p0": "holds the key"}
        cache = {"holds the key": "no"}
        ev = evaluate_system("dense", {"q": ["p0"]}, [record("q", ["p0"], answer="key")], (1,), texts, cache)
        assert ev.coverage_at == {1: 0.0}

    def test_one_eval_normalizes_each_text_once(self, monkeypatch, tmp_path):
        # one `eval` normalizes each distinct answer and each distinct text
        # that either system's coverage scan reaches exactly once
        settings = {
            "passages": tmp_path / "passages.aare",
            "queries": tmp_path / "queries.aare",
            "records": tmp_path / "records.jsonl",
            "texts": tmp_path / "texts.jsonl",
            "pairs": tmp_path / "pairs.tsv",
            "checkpoint": tmp_path / "model.aarm",
            "eval.out": tmp_path / "eval.json",
            "synth.n_passages": 200,
            "synth.dim": 8,
            "synth.n_questions": 40,
            "train.epochs": 2,
            "train.batch_size": 8,
            "rerank.pool_depth": 20,
            "eval.ks": [5, 8],
        }
        argv = [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]
        for command in ("synth", "pairs", "train"):
            assert cli.main([command] + argv) == 0
        seen = []
        real_evaluate = evaluation.evaluate_system

        def capture(system, rankings, records, ks, texts, *args):
            seen.append((rankings, records, texts))
            return real_evaluate(system, rankings, records, ks, texts, *args)

        calls = []
        real = evaluation.qa_normalize
        monkeypatch.setattr(evaluation, "qa_normalize", lambda t: calls.append(t) or real(t))
        monkeypatch.setattr(evaluation, "evaluate_system", capture)
        assert cli.main(["eval"] + argv) == 0
        assert len(seen) == 2
        scanned = set().union(*(scanned_texts(rankings, records, texts, 8) for rankings, records, texts in seen))
        assert sorted(calls) == sorted(scanned)
        # the scans stop at the first hit, short of some top max(ks) texts
        top = {texts[p] for rankings, _, texts in seen for ranked in rankings.values() for p in ranked[:8]}
        assert not top <= scanned

    def test_coverage_reads_texts_of_the_top_max_k_only(self):
        records, baseline, _ = rankings_fixture()
        texts = {pid: f"text about {pid}" for pid in "ABCDEXYZWV"}
        want = evaluate_system("dense", baseline, records, ks=(1, 2), texts=texts).coverage_at
        top = {pid for ranked in baseline.values() for pid in ranked[:2]}
        partial = {pid: texts[pid] for pid in top}
        assert evaluate_system("dense", baseline, records, ks=(1, 2), texts=partial).coverage_at == want

    def test_missing_ranking_and_empty_records(self):
        records, baseline, _ = rankings_fixture()
        with pytest.raises(ValueError, match="no records"):
            evaluate_system("dense", baseline, [], ks=(5,))
        del baseline["q2"]
        with pytest.raises(ValueError, match="no ranking for question 'q2'"):
            evaluate_system("dense", baseline, records, ks=(5,))

    def test_json_shape(self):
        records, baseline, _ = rankings_fixture()
        payload = evaluate_system("dense", baseline, records, ks=(5,)).to_json_dict()
        assert payload["system"] == "dense"
        assert set(payload["per_question"]) == {"q1", "q2", "q3"}
        assert payload["recall_at"]["5"] == pytest.approx(0.5)


class TestEasyHardAndCompare:
    def test_split_definitions_and_partition(self):
        records, baseline, _ = rankings_fixture()
        ev = evaluate_system("dense", baseline, records, ks=(5,))
        easy, hard = easy_hard_split(ev)
        assert easy == {"q1"}
        assert hard == {"q2", "q3"}
        assert easy | hard == set(ev.questions)
        assert not (easy & hard)

    def test_compare_deltas(self):
        records, baseline, reranked = rankings_fixture()
        b = evaluate_system("dense", baseline, records, ks=(5,))
        r = evaluate_system("rerank", reranked, records, ks=(5,))
        report = compare_systems(b, r, ks=(5,), resamples=200, seed=0)
        assert report.deltas[5]["delta"] == pytest.approx(1 / 3)
        assert report.easy["n"] == 1
        assert report.hard["n"] == 2
        assert report.hard["delta"] == pytest.approx(0.5)
        payload = report.to_json_dict()
        assert set(payload["systems"]) == {"dense", "rerank"}

    def test_an_empty_subset_is_null_in_strict_json(self):
        records, baseline, _ = rankings_fixture()
        ev = evaluate_system("dense", baseline, records, ks=(5,))
        # the baseline against itself: no question moves, and with every
        # question's gold in the top 5 the hard subset is empty
        hits = {qid: list(rec.gold_passage_ids) for qid, rec in zip(baseline, records)}
        all_easy = evaluate_system("dense", hits, records, ks=(5,))
        for b, r, empty in ((ev, ev, None), (all_easy, all_easy, "hard")):
            payload = compare_systems(b, r, ks=(5,), resamples=20, seed=0).to_json_dict()

            def no_constant(name):
                raise ValueError(f"non-finite {name} in eval.json")

            parsed = json.loads(json.dumps(payload), parse_constant=no_constant)
            for subset in ("easy", "hard"):
                stats = parsed[subset]
                if subset == empty:
                    assert stats == {"n": 0, "baseline_r5": None, "reranked_r5": None, "delta": None}
                else:
                    assert stats["n"] > 0 and all(math.isfinite(v) for v in stats.values())

    def test_question_set_mismatch(self):
        records, baseline, reranked = rankings_fixture()
        b = evaluate_system("dense", baseline, records, ks=(5,))
        r = evaluate_system("rerank", reranked, records[:2], ks=(5,))
        with pytest.raises(ValueError, match="different question sets"):
            compare_systems(b, r, ks=(5,))

    def test_cis_equal_one_bootstrap_per_k(self):
        # compare_systems draws its resamples once for all ks; each k's CI
        # must equal paired_bootstrap_ci on that k's deltas alone, bit for bit
        rng = np.random.default_rng(21)
        ids = [f"p{i}" for i in range(40)]
        records = [record(f"q{i}", rng.choice(ids, size=3, replace=False)) for i in range(60)]
        b_rank = {r.question_id: [ids[j] for j in rng.permutation(40)] for r in records}
        r_rank = {r.question_id: [ids[j] for j in rng.permutation(40)] for r in records}
        ks = (5, 10, 20)
        b = evaluate_system("dense", b_rank, records, ks)
        r = evaluate_system("rerank", r_rank, records, ks)
        report = compare_systems(b, r, ks, resamples=2345, seed=9)
        qids = sorted(b.questions)
        for k in ks:
            d = np.array([r.questions[q].recall[k] - b.questions[q].recall[k] for q in qids])
            lo, hi = paired_bootstrap_ci(d[None], resamples=2345, seed=9)[0]
            assert (report.deltas[k]["ci_low"], report.deltas[k]["ci_high"]) == (lo, hi)
            assert report.deltas[k]["delta"] == float(d.mean())

    def test_hit_cutoff_required(self):
        assert evaluation.HIT_K == 5
        records, baseline, reranked = rankings_fixture()
        b = evaluate_system("dense", baseline, records, ks=(3,))
        r = evaluate_system("rerank", reranked, records, ks=(3,))
        with pytest.raises(ValueError, match=r"^ks \[3\] must include the hit cutoff 5$"):
            compare_systems(b, r, ks=(3,))


def scored_pool(qids, rows, sims, assocs):
    """The pools of a block of queries, from one row of pool rows, sims and
    assocs per query."""
    return ScoredPool(
        query_ids=list(qids),
        rows=np.asarray(rows, dtype=np.int64),
        sims=np.asarray(sims, dtype=np.float32),
        assocs=np.asarray(assocs, dtype=np.float32),
    )


def one_pool(scored, i, depth=None):
    """Query i's pool, truncated to `depth`, as a block of one."""
    return ScoredPool(
        query_ids=[scored.query_ids[i]],
        rows=scored.rows[i : i + 1, :depth],
        sims=scored.sims[i : i + 1, :depth],
        assocs=scored.assocs[i : i + 1, :depth],
    )


class TestLambdaSweep:
    def small_world(self):
        ids = [f"p{i}" for i in range(30)]
        sims = np.linspace(1.0, 0.1, 12).astype(np.float32)
        assocs = np.zeros(12, dtype=np.float32)
        assocs[7] = 5.0  # strong association for the row at dense rank 8
        pool = scored_pool(["q1"], [list(range(12))], [sims], [assocs])
        records = [record("q1", ["p7", "p0"])]
        return pool, ids, records

    def test_lambda_zero_equals_dense_baseline_exactly(self):
        pool, ids, records = self.small_world()
        rows = lambda_sweep(pool, ids, records, [0.0, 0.5], ks=(5,))
        dense_rankings = {"q1": [ids[r] for r in pool.rows[0, :5]]}
        dense = evaluate_system("dense", dense_rankings, records, ks=(5,))
        assert rows[0]["lambda"] == 0.0
        assert rows[0]["recall_at_5"] == dense.recall_at[5] == 0.5
        # the strong association rescues p7 at lambda 0.5
        assert rows[1]["recall_at_5"] == 1.0

    def test_single_lambda_matches_direct_evaluation(self):
        pool, ids, records = self.small_world()
        row = lambda_sweep(pool, ids, records, [0.3], ks=(5,))[0]
        ranked = [ids[r] for r in rank_rows(pool, 0.3, 5)[0]]
        direct = evaluate_system("x", {"q1": ranked}, records, ks=(5,))
        assert row["recall_at_5"] == direct.recall_at[5]

    def test_identity_model_rows_all_equal_baseline(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(60, 16)).astype(np.float32)
        passages = EmbeddingMatrix(
            ids=[f"p{i}" for i in range(60)], data=unit_rows(data), normalized=True
        )
        model = AssocModel.initialize(16, seed=0)
        model.alpha_raw[:] = 20.0
        transformed = transform_matrix(model, passages)
        cfg = RerankConfig(pool_depth=20, cutoff=5)
        queries = []
        for qi in range(8):
            q = passages.data[qi] + rng.normal(scale=0.05, size=16).astype(np.float32)
            queries.append((q / np.linalg.norm(q)).astype(np.float32))
        qids = [f"q{qi}" for qi in range(8)]
        pool = score_pool(qids, np.stack(queries), passages, transformed, model, cfg)
        records = [
            record(qid, [passages.ids[r] for r in gold_rows])
            for qid, gold_rows in zip(qids, pool.rows[:, :2])
        ]
        rows = lambda_sweep(pool, passages.ids, records, [0.0, 0.25, 0.5, 1.0], ks=(5, 10))
        for row in rows[1:]:
            for key in ("recall_at_5", "recall_at_10"):
                assert row[key] == rows[0][key]

    def test_bad_lambda(self):
        pool, ids, records = self.small_world()
        with pytest.raises(ValueError, match="lambda"):
            lambda_sweep(pool, ids, records, [1.5], ks=(5,))


class TestPoolDepthSweep:
    def deep_world(self):
        ids = [f"p{i}" for i in range(40)]
        n = 30
        sims = np.linspace(1.0, 0.1, n).astype(np.float32)
        assocs = np.zeros(n, dtype=np.float32)
        assocs[14] = 9.0  # gold sits at dense rank 15
        pool = scored_pool(["q1"], [list(range(n))], [sims], [assocs])
        records = [record("q1", ["p14"])]
        return pool, ids, records

    def test_gold_at_rank_15_needs_depth_15(self):
        pool, ids, records = self.deep_world()
        rows = pool_depth_sweep(pool, ids, records, [5, 10, 14, 15, 30], 0.5, ks=(5,))
        by_depth = {row["depth"]: row for row in rows}
        for depth in (5, 10, 14):
            assert by_depth[depth]["recall_at_5"] == 0.0
            assert by_depth[depth]["gold_in_pool"] == 0.0
        for depth in (15, 30):
            assert by_depth[depth]["recall_at_5"] == 1.0
            assert by_depth[depth]["gold_in_pool"] == 1.0

    def test_containment_bound_at_every_depth(self):
        rng = np.random.default_rng(9)
        ids = [f"p{i}" for i in range(50)]
        pools = []
        records = []
        for qi in range(6):
            rows = rng.permutation(50)[:25]
            sims = np.sort(rng.random(25).astype(np.float32))[::-1]
            assocs = rng.normal(size=25).astype(np.float32)
            pools.append((f"q{qi}", rows, sims, assocs))
            gold_rows = rng.choice(50, size=2, replace=False)
            records.append(record(f"q{qi}", [ids[r] for r in gold_rows]))
        depths = [1, 3, 5, 10, 20, 25]
        rows_out = pool_depth_sweep(scored_pool(*zip(*pools)), ids, records, depths, 0.7, ks=(5,))
        for row in rows_out:
            assert row["recall_at_5"] <= row["gold_in_pool"] + 1e-12

    def test_depth_five_uses_exactly_dense_top5(self):
        pool, ids, records = self.deep_world()
        row = pool_depth_sweep(pool, ids, records, [5], 1.0, ks=(5,))[0]
        # reranking a 5-pool at cutoff 5 is a permutation of the dense top-5
        assert row["recall_at_5"] == row["gold_in_pool"]

    def test_depth_out_of_range(self):
        pool, ids, records = self.deep_world()
        with pytest.raises(ValueError, match="out of range"):
            pool_depth_sweep(pool, ids, records, [31], 0.5, ks=(5,))
        with pytest.raises(ValueError, match="out of range"):
            pool_depth_sweep(pool, ids, records, [0], 0.5, ks=(5,))


def reference_lambda_sweep(scored, ids, records, lambdas, ks):
    """The per-pool lambda sweep, one `rank_rows` and `brute_recall` call per
    query and setting: the oracle for the array version."""
    by_qid = {rec.question_id: rec for rec in records}
    rows = []
    for lam in lambdas:
        rankings = {}
        for i, qid in enumerate(scored.query_ids):
            ranked = rank_rows(one_pool(scored, i), lam, max(ks))[0]
            rankings[qid] = [ids[r] for r in ranked]
        row = {"lambda": lam}
        for k in ks:
            row[f"recall_at_{k}"] = float(
                np.mean(
                    [brute_recall(rankings[q], by_qid[q].gold_passage_ids, k) for q in rankings]
                )
            )
        rows.append(row)
    return rows


def reference_pool_depth_sweep(scored, ids, records, depths, blend_lambda, ks):
    """The per-pool depth sweep over truncated pool copies: the oracle for the
    array version."""
    by_qid = {rec.question_id: rec for rec in records}
    rows = []
    for depth in depths:
        rankings = {}
        containment = []
        for i, qid in enumerate(scored.query_ids):
            truncated = one_pool(scored, i, depth)
            ranked = rank_rows(truncated, blend_lambda, min(max(ks), depth))[0]
            rankings[qid] = [ids[r] for r in ranked]
            gold = set(by_qid[qid].gold_passage_ids)
            inside = len(gold & {ids[r] for r in truncated.rows[0]}) / len(gold)
            containment.append(inside)
        row = {"depth": depth, "gold_in_pool": float(np.mean(containment))}
        for k in ks:
            row[f"recall_at_{k}"] = float(
                np.mean(
                    [brute_recall(rankings[q], by_qid[q].gold_passage_ids, k) for q in rankings]
                )
            )
        rows.append(row)
    return rows


def tied_world(seed, n_queries=40, depth=25, n_ids=120):
    """Pools whose integer-valued sims and assocs make blended ties common,
    with gold inside, outside and on the last row of the pools, gold ids
    outside the corpus and repeated gold ids."""
    rng = np.random.default_rng(seed)
    ids = [f"p{i}" for i in range(n_ids)]
    pools, records = [], []
    for qi in range(n_queries):
        rows = rng.permutation(n_ids)[:depth]
        sims = np.sort(rng.integers(0, 4, size=depth).astype(np.float32))[::-1]
        assocs = rng.integers(-3, 4, size=depth).astype(np.float32)
        pools.append((f"q{qi}", rows, sims, assocs))
        gold = [ids[r] for r in rng.choice(n_ids, size=int(rng.integers(1, 4)), replace=False)]
        if qi % 3 == 0:
            gold[0] = ids[rows[-1]]
        if qi % 7 == 0:
            gold.append("absent")  # a gold id outside the corpus
        if qi % 5 == 0:
            gold.append(gold[0])  # a repeated gold id counts once
        records.append(record(f"q{qi}", gold))
    return scored_pool(*zip(*pools)), ids, records


class TestArraySweepsMatchPerPoolLoops:
    LAMBDAS = [0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0]
    DEPTHS = [1, 2, 5, 9, 24, 25]
    KS = (1, 3, 5, 10, 20, 30)

    def test_tied_pools_equal_reference_rows(self):
        for seed in range(5):
            pool, ids, records = tied_world(seed)
            assert any(len(set(sims)) < len(sims) for sims in pool.sims.tolist())
            lam_rows = lambda_sweep(pool, ids, records, self.LAMBDAS, self.KS)
            assert lam_rows == reference_lambda_sweep(pool, ids, records, self.LAMBDAS, self.KS)
            for blend_lambda in (0.0, 0.5, 1.0):
                got = pool_depth_sweep(pool, ids, records, self.DEPTHS, blend_lambda, self.KS)
                want = reference_pool_depth_sweep(
                    pool, ids, records, self.DEPTHS, blend_lambda, self.KS
                )
                assert got == want, (seed, blend_lambda)

    def test_gold_on_last_row_counts_only_at_full_depth(self):
        pool, ids, records = tied_world(7, n_queries=1)
        records = [record("q0", [ids[pool.rows[0, -1]]])]
        got = pool_depth_sweep(pool, ids, records, [24, 25], 1.0, (25,))
        assert [row["gold_in_pool"] for row in got] == [0.0, 1.0]
        assert got == reference_pool_depth_sweep(pool, ids, records, [24, 25], 1.0, (25,))

    def test_scored_pools_equal_reference_rows(self):
        rng = np.random.default_rng(13)
        model, passages, transformed, _ = tiny_pipeline(rng, n=200, d=12)
        config = RerankConfig(pool_depth=30, cutoff=5)
        queries, records = [], []
        for qi in range(25):
            queries.append(rng.normal(size=12).astype(np.float32))
            gold = rng.choice(200, size=2, replace=False)
            records.append(record(f"q{qi}", [passages.ids[r] for r in gold]))
        qids = [rec.question_id for rec in records]
        pool = score_pool(qids, np.stack(queries), passages, transformed, model, config)
        ids = passages.ids
        assert lambda_sweep(pool, ids, records, self.LAMBDAS, self.KS) == reference_lambda_sweep(
            pool, ids, records, self.LAMBDAS, self.KS
        )
        depths = [1, 4, 10, 30]
        assert pool_depth_sweep(pool, ids, records, depths, 0.5, self.KS) == (
            reference_pool_depth_sweep(pool, ids, records, depths, 0.5, self.KS)
        )

    def test_k_below_one_rejected(self):
        pool, ids, records = tied_world(9, n_queries=3)
        for ks in ((0,), (5, 0), (-1, 5)):
            with pytest.raises(ValueError, match="k must be >= 1"):
                lambda_sweep(pool, ids, records, [0.5], ks=ks)
            with pytest.raises(ValueError, match="k must be >= 1"):
                pool_depth_sweep(pool, ids, records, [5], 0.5, ks=ks)

    def test_no_pools_rejected(self):
        empty = np.empty((0, 5))
        for sweep in (lambda_sweep, pool_depth_sweep):
            args = ([0.5],) if sweep is lambda_sweep else ([5], 0.5)
            with pytest.raises(ValueError, match="^no pools to sweep$"):
                sweep(scored_pool([], empty, empty, empty), ["p0"], [], *args, ks=(5,))

    def test_empty_gold_set_rejected(self):
        pool, ids, records = tied_world(10, n_queries=3)
        records[2] = record("q2", [])
        with pytest.raises(ValueError, match="empty gold set"):
            lambda_sweep(pool, ids, records, [0.5], ks=(5,))
        with pytest.raises(ValueError, match="empty gold set"):
            pool_depth_sweep(pool, ids, records, [5], 0.5, ks=(5,))


class TestRankMovement:
    def test_identical_reports_move_nothing(self):
        records, baseline, _ = rankings_fixture()
        ev = evaluate_system("dense", baseline, records, ks=(5,))
        report = rank_movement_report(ev, ev, pool_depth=5)
        assert report.rescued == []
        assert report.regressed == []

    def test_partition_is_exhaustive(self):
        records, baseline, reranked = rankings_fixture()
        b = evaluate_system("dense", baseline, records, ks=(5,))
        r = evaluate_system("rerank", reranked, records, ks=(5,))
        report = rank_movement_report(b, r, pool_depth=5)
        total = (
            len(report.rescued)
            + len(report.regressed)
            + len(report.unchanged_hit)
            + len(report.unchanged_miss)
        )
        assert total == len(records)
        assert report.rescued == ["q2"]
        assert report.unchanged_hit == ["q1"]
        assert report.unchanged_miss == ["q3"]

    def test_rescued_rank_movement_table(self):
        ids = [f"p{i}" for i in range(60)]
        gold = "p49"
        base_rank = {gold: 50}
        baseline = {"q1": ids[:49] + [gold]}        # gold at rank 50
        reranked = {"q1": [ids[0], gold] + ids[1:49]}  # promoted to rank 2
        records = [record("q1", [gold])]
        b = evaluate_system("dense", baseline, records, ks=(5,))
        r = evaluate_system("rerank", reranked, records, ks=(5,))
        report = rank_movement_report(b, r, pool_depth=50)
        assert report.rescued == ["q1"]
        assert report.rescued_gold_ranks["q1"][gold] == [50, 2]

    def test_miss_outside_pool_fraction(self):
        records = [record("q1", ["G1"]), record("q2", ["G2"])]
        baseline = {
            "q1": ["X1", "X2", "X3", "X4", "X5", "X6", "G1"],  # rank 7, inside pool 10
            "q2": ["X1", "X2", "X3", "X4", "X5", "X6", "X7"],  # absent
        }
        ev = evaluate_system("dense", baseline, records, ks=(5,))
        report = rank_movement_report(ev, ev, pool_depth=10)
        assert sorted(report.unchanged_miss) == ["q1", "q2"]
        assert report.miss_outside_pool_fraction == 0.5
        payload = report.to_json_dict()
        assert payload["counts"]["unchanged_miss"] == 2

    def test_question_mismatch(self):
        records, baseline, _ = rankings_fixture()
        b = evaluate_system("dense", baseline, records, ks=(5,))
        r = evaluate_system("rerank", {"q1": baseline["q1"]}, records[:1], ks=(5,))
        with pytest.raises(ValueError, match="different question sets"):
            rank_movement_report(b, r, pool_depth=5)

    def test_hit_cutoff_required(self):
        records, baseline, reranked = rankings_fixture()
        b = evaluate_system("dense", baseline, records, ks=(5,))
        r = evaluate_system("rerank", reranked, records, ks=(3,))
        with pytest.raises(ValueError, match="^system 'rerank' has no recall@5, the hit cutoff$"):
            rank_movement_report(b, r, pool_depth=5)


def tiny_pipeline(rng, n=80, d=12):
    """(model, passages, transformed, config), the leading latency_bench arguments."""
    data = rng.normal(size=(n, d)).astype(np.float32)
    passages = EmbeddingMatrix(
        ids=[f"p{i}" for i in range(n)], data=unit_rows(data), normalized=True
    )
    model = AssocModel.initialize(d, seed=0)
    transformed = transform_matrix(model, passages)
    cfg = RerankConfig(pool_depth=10, cutoff=5)
    return model, passages, transformed, cfg


class TestLatencyBench:
    def test_single_rep_mean_equals_p95(self):
        rng = np.random.default_rng(10)
        pipe = tiny_pipeline(rng)
        queries = rng.normal(size=(3, 12)).astype(np.float32)
        stats = latency_bench(*pipe, queries, [10], warmup=0, reps=1)[10]
        expected = {
            "candidate_retrieval",
            "query_transform",
            "association_scoring",
            "blend_rank",
            "total",
        }
        assert set(stats.components) == expected
        # 3 queries x 1 rep: p95 interpolates inside the 3 samples, and every
        # component is non-negative with total >= each stage
        for name, timing in stats.components.items():
            assert timing.mean_ms >= 0.0
            assert timing.p95_ms >= 0.0
        total = stats.components["total"].mean_ms
        for name in expected - {"total"}:
            assert total >= stats.components[name].mean_ms

    def test_exactly_one_sample_per_query_rep(self):
        rng = np.random.default_rng(11)
        pipe = tiny_pipeline(rng)
        q = rng.normal(size=(1, 12)).astype(np.float32)
        stats = latency_bench(*pipe, q, [10], warmup=0, reps=1)[10]
        t = stats.components["total"]
        assert t.mean_ms == pytest.approx(t.p95_ms)
        assert t.mean_ms == pytest.approx(t.p50_ms)

    def test_validation(self):
        rng = np.random.default_rng(12)
        pipe = tiny_pipeline(rng)
        with pytest.raises(ValueError, match="2-D"):
            latency_bench(*pipe, np.zeros(12, dtype=np.float32), [10])
        q = np.zeros((1, 12), dtype=np.float32)
        with pytest.raises(ValueError, match="warmup"):
            latency_bench(*pipe, q, [10], warmup=-1)
        with pytest.raises(ValueError, match="reps"):
            latency_bench(*pipe, q, [10], reps=0)
        with pytest.raises(ValueError, match=r"^depths must be a non-empty list of depths >= 1"):
            latency_bench(*pipe, q, [])
        with pytest.raises(ValueError, match=r"depths >= 1, got \[10, 0\]$"):
            latency_bench(*pipe, q, [10, 0])
        model, passages, transformed, _ = pipe
        bad = RerankConfig(pool_depth=3, cutoff=5)
        with pytest.raises(ValueError, match="cutoff"):
            latency_bench(model, passages, transformed, bad, q, [3])
        transformed.data = transformed.data[:-1]
        good = RerankConfig(pool_depth=10, cutoff=5)
        with pytest.raises(ValueError, match="does not match"):
            latency_bench(model, passages, transformed, good, q, [10])

    def test_depths_are_timed_back_to_back(self, monkeypatch):
        rng = np.random.default_rng(13)
        pipe = tiny_pipeline(rng)
        seen = []
        real_top_k = evaluation.rerank.top_k

        def recording_top_k(q, passages, k):
            seen.append(k)
            return real_top_k(q, passages, k)

        monkeypatch.setattr(evaluation.rerank, "top_k", recording_top_k)
        queries = rng.normal(size=(2, 12)).astype(np.float32)
        stats = latency_bench(*pipe, queries, [10, 3], warmup=1, reps=2)
        # every query at every depth in turn, for the warmup pass and each rep
        assert seen == [10, 3] * 2 * 3
        assert list(stats) == [10, 3]
        for depth_stats in stats.values():
            t = depth_stats.components["total"]
            assert 0.0 <= t.p50_ms <= t.p95_ms

    def test_json_shape(self):
        stats = LatencyStats(components={"total": ComponentTiming(1.5, 2.0, 2.5)})
        assert stats.to_json_dict() == {"total": {"mean_ms": 1.5, "p50_ms": 2.0, "p95_ms": 2.5}}
