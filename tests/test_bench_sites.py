"""The benchmark's trace sites: every function perfbench wraps exists, and
the product paths it times still call them.

perfbench patches product functions by attribute name, so a renamed
function stops a traced run, and one that is no longer called reads 0 in
its per-layer metric.
"""

import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from assocrank import cli, evaluation, parallel, rerank, training
from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, transform_matrix
from assocrank.pairs import AssocPairSet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402


def test_every_trace_site_is_a_callable():
    for owner, attr, name, _ in harness.trace_sites(harness.product_api()):
        assert callable(getattr(owner, attr, None)), f"{name}: no callable {attr!r}"


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to the given (module, function name) sites."""
    counts = Counter()

    def watch(*sites):
        for owner, attr in sites:
            real = getattr(owner, attr)

            def counting(*args, _real=real, _name=f"{owner.__name__}.{attr}", **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
        return counts

    return watch


def test_rerank_query_reaches_the_traced_stages(calls):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(50, 8)).astype(np.float32)
    passages = EmbeddingMatrix([f"p{i}" for i in range(50)], data)
    model = AssocModel.initialize(8, seed=0)
    transformed = transform_matrix(model, passages)
    counts = calls((rerank, "score_pool"), (rerank, "top_k"), (rerank, "forward"))
    config = rerank.RerankConfig(pool_depth=10, cutoff=3)
    rerank.rerank_query("q", passages.data[0], passages, transformed, model, config)
    assert counts == {
        "assocrank.rerank.score_pool": 1,
        "assocrank.rerank.top_k": 1,
        "assocrank.rerank.forward": 1,
    }


def eval_argv(tmp_path, **more):
    """`--set` arguments for a small pipeline in `tmp_path`."""
    settings = {
        "passages": tmp_path / "passages.aare",
        "queries": tmp_path / "queries.aare",
        "records": tmp_path / "records.jsonl",
        "texts": tmp_path / "texts.jsonl",
        "pairs": tmp_path / "pairs.tsv",
        "checkpoint": tmp_path / "model.aarm",
        "eval.out": tmp_path / "eval.json",
        "synth.n_passages": 120,
        "synth.dim": 8,
        "synth.n_questions": 12,
        "train.epochs": 1,
        "train.batch_size": 4,
        "rerank.pool_depth": 20,
        **more,
    }
    argv = [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]
    for command in ("synth", "pairs", "train"):
        assert cli.main([command] + argv) == 0
    return argv


@pytest.mark.parametrize("questions", [12, 130])
def test_eval_reaches_the_traced_stages(calls, tmp_path, questions):
    argv = eval_argv(tmp_path, **{"synth.n_passages": 400, "synth.n_questions": questions})
    counts = calls((rerank, "rank_rows"), (evaluation, "evaluate_system"), (rerank, "forward"))
    assert cli.main(["eval"] + argv) == 0
    # one forward call per search block of up to 64 queries
    assert counts == {
        "assocrank.rerank.rank_rows": 1,
        "assocrank.evaluation.evaluate_system": 2,
        "assocrank.rerank.forward": -(-questions // rerank._QUERY_BLOCK),
    }


def test_eval_passes_each_system_its_rankings(monkeypatch, tmp_path):
    """perfbench's eval check wraps `evaluate_system` as
    `(system, rankings, *args, **kwargs)` and reads, for "dense" and then
    "rerank", each question's ranked passage ids from `rankings`: the ids
    of the pools' rows, and of the rows `rank_rows` ranks, as lists of str."""
    argv = eval_argv(tmp_path)
    seen, returned = [], {}
    real = evaluation.evaluate_system

    def capture(system, rankings, *args, **kwargs):
        seen.append((system, rankings))
        return real(system, rankings, *args, **kwargs)

    def keep(name, fn):
        def kept(*args, **kwargs):
            returned[name] = fn(*args, **kwargs)
            return returned[name]

        return kept

    monkeypatch.setattr(evaluation, "evaluate_system", capture)
    monkeypatch.setattr(rerank, "score_pool", keep("score_pool", rerank.score_pool))
    monkeypatch.setattr(rerank, "rank_rows", keep("rank_rows", rerank.rank_rows))
    assert cli.main(["eval"] + argv) == 0
    assert [system for system, _ in seen] == ["dense", "rerank"]
    passage_ids = cli.load_matrix(str(tmp_path / "passages.aare")).ids
    question_ids = cli.load_matrix(str(tmp_path / "queries.aare")).ids
    assert list(returned["score_pool"].query_ids) == question_ids
    rows = {"dense": returned["score_pool"].rows, "rerank": returned["rank_rows"]}
    for system, rankings in seen:
        assert type(rankings) is dict and list(rankings) == question_ids
        for ranked, row in zip(rankings.values(), rows[system].tolist()):
            assert type(ranked) is list and all(type(pid) is str for pid in ranked)
            assert ranked == [passage_ids[r] for r in row]
            assert len(ranked) == len(set(ranked)) == 20


def test_latency_bench_times_each_query_alone(calls, monkeypatch):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(50, 8)).astype(np.float32)
    passages = EmbeddingMatrix([f"p{i}" for i in range(50)], data)
    model = AssocModel.initialize(8, seed=0)
    transformed = transform_matrix(model, passages)
    counts = calls((rerank, "top_k"), (rerank, "forward"), (rerank, "_association_readout"))
    shapes = []
    counting_forward = rerank.forward
    monkeypatch.setattr(rerank, "forward", lambda model, x: shapes.append(np.shape(x)) or counting_forward(model, x))
    config = rerank.RerankConfig(pool_depth=10, cutoff=3)
    evaluation.latency_bench(model, passages, transformed, config, data[:5], [5, 10], warmup=1, reps=2)
    # 5 queries at 2 depths in 1 + 2 passes, each stage timed per query
    assert counts == {f"assocrank.rerank.{name}": 30 for name in ("top_k", "forward", "_association_readout")}
    assert set(shapes) == {(8,)}


def test_train_reaches_the_traced_stages(calls):
    rng = np.random.default_rng(1)
    data = rng.normal(size=(24, 8)).astype(np.float32)
    passages = EmbeddingMatrix([f"p{i}" for i in range(24)], data)
    pairs = [(f"p{i}", f"p{i + 12}") for i in range(12)]
    pair_set = AssocPairSet(pairs=pairs, pair_splits=[frozenset({"train"})] * 12)
    counts = calls(
        (training, "backward"),
        (training, "forward_batch"),
        (training, "backward_batch"),
        (training, "symmetric_ce_loss"),
        (training, "training_accuracy"),
        (training.AdamW, "step"),
    )
    config = training.TrainConfig(batch_size=4, epochs=2)
    training.train(AssocModel.initialize(8, seed=0), pair_set, passages, config)
    # 3 batches an epoch, each one step; the accuracy pass runs 2 forwards per batch
    assert counts == {
        "assocrank.training.backward": 6,
        "assocrank.training.forward_batch": 6 + 3 * 2,
        "assocrank.training.backward_batch": 6,
        "assocrank.training.symmetric_ce_loss": 6,
        "assocrank.training.training_accuracy": 1,
        "AdamW.step": 6,
    }


def test_traced_functions_run_on_the_calling_thread(pool_of, monkeypatch, tmp_path):
    """The tracer's span stack is not thread-safe, so no traced function may
    run on a `parallel` helper: not in a split search, a transform of several
    blocks or the bootstrap's overlapped draws."""
    pool_of(2)
    api = harness.product_api()
    caller = threading.get_ident()
    off_thread = []
    for owner, attr, name, _ in harness.trace_sites(api):

        def recording(*args, _real=getattr(owner, attr), _name=name, **kwargs):
            if threading.get_ident() != caller:
                off_thread.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, recording)
    # each path must offer work to the helpers, or it checks nothing
    offered = []
    task_init = parallel._Task.__init__
    monkeypatch.setattr(parallel._Task, "__init__", lambda task, fn, n: offered.append(n) or task_init(task, fn, n))

    # 300 questions, so that the caller's means for the first 1,000
    # resamples outlast a helper's wake-up and the helper makes the draws
    argv = eval_argv(tmp_path, **{"eval.resamples": 2000, "synth.n_passages": 600, "synth.n_questions": 300})
    offered.clear()
    assert api.cli_main(["eval"] + argv) == 0
    assert offered == [2]  # the draws of the second 1,000 resamples

    rng = np.random.default_rng(2)
    rows = (1 << 20) // 64 + 4000  # more than 2^20 entries, so the search splits
    passages = EmbeddingMatrix([f"p{i}" for i in range(rows)], rng.normal(size=(rows, 64)).astype(np.float32))
    model = AssocModel.initialize(64, seed=0)
    offered.clear()
    transformed = api.transform_matrix(model, passages)
    assert offered and offered[0] > 1
    offered.clear()
    config = rerank.RerankConfig(pool_depth=10, cutoff=3)
    api.rerank_query("q", passages.data[0], passages, transformed, model, config)
    assert offered == [2]
    assert off_thread == []
