"""The benchmark's trace sites: every function perfbench wraps exists, and
the product paths it times still call them.

perfbench patches product functions by attribute name, so a renamed
function stops a traced run, and one that is no longer called reads 0 in
its per-layer metric.
"""

import os
import sys
from collections import Counter

import numpy as np
import pytest

from assocrank import cli, evaluation, rerank, training
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


def test_eval_reaches_the_traced_stages(calls, tmp_path):
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
    }
    argv = [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]
    for command in ("synth", "pairs", "train"):
        assert cli.main([command] + argv) == 0
    counts = calls((rerank, "rank_rows"), (evaluation, "evaluate_system"))
    assert cli.main(["eval"] + argv) == 0
    assert counts == {"assocrank.rerank.rank_rows": 1, "assocrank.evaluation.evaluate_system": 2}


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
