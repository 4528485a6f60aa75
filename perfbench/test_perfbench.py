"""Tests of the benchmark's own machinery: the ranking oracle, span
arithmetic, seeded inputs, the block p99 and the BLAS thread cap.

    python3 -m pytest perfbench -q
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np
import pytest

import harness
import run
from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, save_model, transform_matrix
from assocrank.rerank import RerankConfig, rerank_query
from oracle import TOL, Oracle, ranking_error
from tracing import Span, Tracer, self_times, summarize

LAM, DEPTH, CUTOFF = 0.5, 20, 5


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """200 x 16 unit rows where row 41 duplicates row 40, plus queries near row 40."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((200, 16))
    data[41] = data[40]
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    passages = EmbeddingMatrix([f"p{i:03d}" for i in range(200)], data.astype(np.float32))
    queries = data[[40, 40, 7, 99]] + 0.05 * rng.standard_normal((4, 16))
    queries = (queries / np.linalg.norm(queries, axis=1, keepdims=True)).astype(np.float32)
    model = AssocModel.initialize(16, seed=0)
    path = str(tmp_path_factory.mktemp("ckpt") / "model.aarm")
    save_model(model, path)
    return passages, queries, model, Oracle(passages.data, path, LAM, DEPTH)


def product_rows(passages, model, query):
    config = RerankConfig(blend_lambda=LAM, pool_depth=DEPTH, cutoff=CUTOFF)
    result = rerank_query("q", query, passages, transform_matrix(model, passages), model, config)
    return [e.passage_row for e in result.entries]


def test_oracle_accepts_product_rankings(small_corpus):
    passages, queries, model, oracle = small_corpus
    for query, truth in zip(queries, oracle.rank_many(queries)):
        assert truth.rerank_error(product_rows(passages, model, query)) is None


def test_oracle_flags_injected_wrong_ranking(small_corpus):
    passages, queries, model, oracle = small_corpus
    truth = next(oracle.rank_many(queries[2:3]))
    rows = product_rows(passages, model, queries[2])
    assert truth.rerank_error(rows[::-1]) is not None
    assert truth.rerank_error(rows[:-1] + [int(truth.reranked[-1])]) is not None
    outside = next(r for r in range(200) if r not in set(truth.pool.tolist()))
    assert "outside the dense pool" in truth.rerank_error(rows[:-1] + [outside])


def test_oracle_flags_swapped_exact_tie(small_corpus):
    passages, queries, model, oracle = small_corpus
    truth = next(oracle.rank_many(queries[:1]))
    assert truth.blended[40] == truth.blended[41]
    rows = product_rows(passages, model, queries[0])
    assert rows.index(40) + 1 == rows.index(41)
    assert truth.rerank_error(rows) is None
    swapped = list(rows)
    i = swapped.index(40)
    swapped[i], swapped[i + 1] = 41, 40
    assert "position" in truth.rerank_error(swapped)


def test_ranking_error_tolerates_only_float32_near_ties():
    score = np.array([0.9, 0.5, 0.9, 0.9 - TOL / 2, 0.1])
    want = [0, 2, 3, 1, 4]
    assert ranking_error(want, want, score) is None
    assert ranking_error([0, 3, 2, 1, 4], want, score) is None  # near-tie: either order
    assert ranking_error([2, 0, 3, 1, 4], want, score) is not None  # exact tie: lower row first
    assert ranking_error([0, 2, 1, 3, 4], want, score) is not None  # real misorder
    assert ranking_error([0, 0, 3, 1, 4], want, score) == "duplicate rows"


def test_self_time_of_hand_built_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "t"),
        Span(1, "a", 1.0, 3.0, 0, "t"),
        Span(2, "b", 2.0, 4.0, 0, "t"),  # overlaps a: union [1, 4]
        Span(3, "c", 9.0, 12.0, 0, "t"),  # only [9, 10] lies inside root
        Span(4, "a.child", 1.5, 2.5, 1, "t"),  # grandchild: counts against a only
        Span(5, "d", 5.0, 6.0, 0, "t"),
        Span(6, "d.inner", 5.2, 5.4, 5, "t"),
        Span(7, "d.inner", 5.3, 5.35, 5, "t"),  # nested inside the previous sibling
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(0.8)
    stats = summarize(spans)
    assert stats["d.inner"].calls == 2
    assert stats["d.inner"].total_s == pytest.approx(0.25)


def test_tracer_records_parents_and_trace_ids_and_restores():
    tracer = Tracer()
    holder = type("Holder", (), {})()
    holder.inner = lambda x: x + 1
    holder.outer = lambda x: holder.inner(x) * 2
    original = holder.inner
    sites = [(holder, "outer", "outer", True), (holder, "inner", "inner", False)]
    with tracer.patched(sites):
        assert holder.outer(1) == 4
        assert holder.outer(2) == 6
    assert holder.inner is original
    by_id = {s.id: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert [by_id[s.parent].name for s in inner] == ["outer", "outer"]
    assert [s.trace for s in inner] == ["outer#1", "outer#2"]
    assert all(by_id[s.parent].trace == s.trace for s in inner)


def test_input_digest_follows_the_seed():
    api = harness.product_api()
    workload = harness.WORKLOADS["query-5k"]
    first = harness.input_digest(*harness.build_inputs(api, workload, 7))
    again = harness.input_digest(*harness.build_inputs(api, workload, 7))
    other = harness.input_digest(*harness.build_inputs(api, workload, 8))
    assert first == again
    assert first != other


def test_block_p99_groups_rounds_into_blocks_of_min_size():
    samples = np.concatenate([np.arange(100.0), np.arange(100.0) + 1000, np.arange(100.0), np.arange(50.0)])
    # rounds of 60/40 samples: blocks of >= 100 are [0,100), [100,200), [200,350)
    p99, blocks = harness.block_p99(samples, [60, 40, 100, 60, 40, 50], min_block=100)
    assert blocks == 3
    per_block = [np.percentile(samples[a:b], 99) for a, b in ((0, 100), (100, 200), (200, 350))]
    assert p99 == pytest.approx(np.median(per_block))
    assert p99 < 1000  # the slow block does not set it
    assert harness.block_p99(samples[:50], [50], min_block=100) == (pytest.approx(np.percentile(samples[:50], 99)), 1)


def test_blas_runs_on_one_thread_unless_asked_for_more(monkeypatch):
    nproc = len(os.sched_getaffinity(0))
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert run.cap_blas_threads() == nproc
    assert {os.environ[var] for var in run.BLAS_THREAD_VARS} == {"1"}
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(nproc + 1))
    run.cap_blas_threads()
    assert os.environ["OPENBLAS_NUM_THREADS"] == str(nproc)  # never more than nproc
