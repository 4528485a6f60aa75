"""Contrastive trainer: loss oracle, finite differences, optimizer, schedule."""

import dataclasses
import math

import numpy as np
import pytest
from adamw_reference import TensorAdamW
from gradcheck import gradient_check

from assocrank.embeddings import EmbeddingMatrix
from assocrank import training
from assocrank.model import AssocModel, forward, param_views
from assocrank.pairs import AssocPairSet, extract_pairs
from assocrank.synthetic import SyntheticSpec, generate_full
from assocrank.training import (
    AdamW,
    PairSetError,
    TrainConfig,
    backward,
    cosine_lr,
    symmetric_ce_loss,
    train,
    training_accuracy,
)


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d)).astype(np.float32)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def pair_set_for(ids):
    return AssocPairSet(
        pairs=list(ids),
        pair_splits=[frozenset({"train"})] * len(ids),
        provenance="unit",
    )


class TestLossOracle:
    def test_uniform_logits_give_log_b(self):
        for b in (2, 8, 64):
            s = np.full((b, b), 0.73)
            assert abs(symmetric_ce_loss(s) - math.log(b)) < 1e-9

    def test_single_pair_gives_zero(self):
        assert symmetric_ce_loss(np.array([[3.2]])) == 0.0

    def test_strong_diagonal_hand_value(self):
        s = np.zeros((4, 4))
        np.fill_diagonal(s, 10.0)
        assert abs(symmetric_ce_loss(s) - math.log1p(3.0 * math.exp(-10.0))) < 1e-15

    def test_matches_float64_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            b = int(rng.integers(1, 12))
            s = rng.normal(scale=3.0, size=(b, b))
            # reference: explicit row/column cross entropies
            ref = 0.0
            for axis_s in (s, s.T):
                for i in range(b):
                    row = axis_s[i]
                    m = row.max()
                    lse = m + math.log(np.exp(row - m).sum())
                    ref += lse - row[i]
            ref /= 2 * b
            assert abs(symmetric_ce_loss(s) - ref) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            b = int(rng.integers(1, 10))
            assert symmetric_ce_loss(rng.normal(size=(b, b))) >= 0.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_ce_loss(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="empty"):
            symmetric_ce_loss(np.zeros((0, 0)))


class TestLogits:
    def test_identical_uniform_batch_keeps_alpha_grad_finite(self):
        rng = np.random.default_rng(4)
        row = unit_rows(rng, 1, 6)
        x = np.repeat(row, 2, axis=0)
        model = AssocModel.initialize(6, seed=2)
        grads, loss = backward(model, x, x, TrainConfig(temperature=0.5))
        assert abs(loss - math.log(2)) < 1e-6
        assert np.isfinite(grads["alpha_raw"]).all()

    def test_each_pair_is_contrasted_with_the_rest_of_its_batch(self):
        # reference: for every pair i, the cross entropy of a_i against all
        # b_j and of b_i against all a_j, the other B - 1 pairs its negatives
        rng = np.random.default_rng(11)
        for b in (2, 3, 7):
            model = AssocModel.initialize(6, seed=b).astype(np.float64)
            xa = unit_rows(rng, b, 6).astype(np.float64)
            xb = unit_rows(rng, b, 6).astype(np.float64)
            tau = 0.4
            fa = np.array([forward(model, row) for row in xa])
            fb = np.array([forward(model, row) for row in xb])
            ref = 0.0
            for i in range(b):
                for anchor, others in ((fa[i], fb), (fb[i], fa)):
                    logits = others @ anchor / tau
                    m = logits.max()
                    ref += m + math.log(np.exp(logits - m).sum()) - logits[i]
            ref /= 2 * b
            _, loss = backward(model, xa, xb, TrainConfig(temperature=tau))
            assert abs(loss - ref) < 1e-12


class TestGradientCheck:
    # finite differences are run on unit-norm inputs with tau >= 0.2: the
    # normalization jacobian at raw gaussian scale plus tiny tau amplifies
    # truncation error past the comparison threshold without any analytic
    # fault
    def test_in_batch_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        for trial in range(4):
            d = int(rng.integers(4, 9))
            b = int(rng.integers(2, 5))
            model = AssocModel.initialize(d, seed=trial)
            model.alpha_raw[:] = rng.normal(scale=0.5)
            xa = unit_rows(rng, b, d)
            xb = unit_rows(rng, b, d)
            tau = float(rng.uniform(0.2, 1.0))
            cfg = TrainConfig(batch_size=b, temperature=tau)
            worst = gradient_check(model, xa, xb, cfg)
            assert len(worst) == 15
            bad = {k: v for k, v in worst.items() if v >= 1e-4}
            assert not bad, f"fd mismatch: {bad}"

    def test_fd_stable_under_temperature_doubling(self):
        rng = np.random.default_rng(7)
        model = AssocModel.initialize(4, seed=3)
        xa = unit_rows(rng, 3, 4)
        xb = unit_rows(rng, 3, 4)
        for tau in (0.3, 0.6):
            worst = gradient_check(model, xa, xb, TrainConfig(temperature=tau))
            assert max(worst.values()) < 1e-4


class TestBackwardValidation:
    def test_shape_mismatch(self):
        model = AssocModel.initialize(4, seed=0)
        with pytest.raises(ValueError, match="side shapes differ"):
            backward(model, np.ones((2, 4)), np.ones((3, 4)), TrainConfig())

    def test_there_is_no_second_objective_to_select(self):
        # in-batch contrast is the only objective: backward takes no sampled
        # negatives and the config has no mode to pick another
        model = AssocModel.initialize(4, seed=0)
        x = np.eye(4, dtype=np.float32)[:2]
        with pytest.raises(TypeError):
            backward(model, x, x, TrainConfig(), negatives=np.ones((2, 1, 4)))
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "batch_size", "temperature", "learning_rate", "epochs", "weight_decay", "seed",
        ]


class TestAdamW:
    def test_zero_gradient_is_pure_decay(self):
        model = AssocModel.initialize(6, seed=4)
        model.alpha_raw[:] = 0.8
        params = dict(model.param_items())
        before = {k: v.copy() for k, v in params.items()}
        cfg = TrainConfig(weight_decay=0.1)
        opt = AdamW(model.params, cfg)
        opt.step(np.zeros_like(model.params), lr=0.5)
        # every parameter, gate and norms included, shrinks by lr*wd
        for name, arr in params.items():
            assert np.array_equal(arr, before[name] - 0.5 * 0.1 * before[name]), name

    def test_two_steps_match_reference_loop(self):
        rng = np.random.default_rng(8)
        p = rng.normal(size=(3, 3)).astype(np.float32)
        g1 = rng.normal(size=(3, 3)).astype(np.float32)
        g2 = rng.normal(size=(3, 3)).astype(np.float32)
        cfg = TrainConfig(weight_decay=0.05)
        w = p.copy()
        opt = AdamW(w.reshape(-1), cfg)
        opt.step(g1.reshape(-1), lr=1e-2)
        opt.step(g2.reshape(-1), lr=5e-3)

        ref = p.astype(np.float32).copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t, (g, lr) in enumerate(((g1, 1e-2), (g2, 5e-3)), start=1):
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            ref = ref - lr * cfg.weight_decay * ref
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            ref = ref - lr * mh / (np.sqrt(vh) + 1e-8)
        assert np.abs(w - ref).max() < 1e-6

    def test_first_step_is_signlike(self):
        # with fresh moments the bias-corrected update is g/(|g|+eps)
        w = np.zeros(4, dtype=np.float32)
        opt = AdamW(w, TrainConfig(weight_decay=0.0))
        g = np.array([0.5, -2.0, 1e-3, 0.0], dtype=np.float32)
        opt.step(g, lr=0.1)
        expected = -0.1 * np.sign(g) * (np.abs(g) / (np.abs(g) + 1e-8))
        assert np.abs(w - expected).max() < 1e-7

    def test_flat_steps_equal_the_per_tensor_loop_bit_for_bit(self):
        cfg = TrainConfig(weight_decay=10.0)
        flat_model = AssocModel.initialize(8, seed=5)
        tensor_model = AssocModel.initialize(8, seed=5)
        opt = AdamW(flat_model.params, cfg)
        ref = TensorAdamW({k: v.copy() for k, v in tensor_model.param_items()}, cfg)
        rng = np.random.default_rng(12)
        steps = 1200
        for step in range(steps):
            # gradients of several scales, with exact zeros among them
            grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=flat_model.params.size)
            grad[rng.random(grad.size) < 0.05] = 0.0
            grad = grad.astype(np.float32)
            lr = cosine_lr(step // 10, steps // 10, 3e-3)
            opt.step(grad, lr)
            ref.step(param_views(grad, 8), lr)
        for name, arr in flat_model.param_items():
            assert arr.tobytes() == ref.params[name].tobytes(), name
        assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ref.m.values()]).tobytes()
        assert opt.v.tobytes() == np.concatenate([v.ravel() for v in ref.v.values()]).tobytes()


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        base = 3e-4
        assert cosine_lr(0, 100, base) == base
        # halfway the cosine sits at the arithmetic mean
        assert cosine_lr(50, 101, base) == pytest.approx(base / 2)

    @pytest.mark.parametrize("epochs", [2, 3, 100, 300])
    def test_last_epoch_is_exactly_zero(self, epochs):
        assert cosine_lr(epochs - 1, epochs, 3e-4) == 0.0

    def test_single_epoch(self):
        assert cosine_lr(0, 1, 1e-3) == 1e-3

    def test_monotone_nonincreasing(self):
        vals = [cosine_lr(e, 40, 1.0) for e in range(40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cosine_lr(5, 5, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            cosine_lr(-1, 5, 1.0)


class TestTrainConfig:
    def test_production_scale_recipe_accepted(self):
        TrainConfig(batch_size=512, temperature=0.05, learning_rate=3e-4, epochs=100).validate()

    def test_field_validation(self):
        for bad in (
            {"batch_size": 0},
            {"temperature": 0.0},
            {"learning_rate": -1.0},
            {"epochs": -1},
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("weight_decay", -0.01, "weight_decay must be finite and >= 0, got -0.01"),
            ("weight_decay", math.inf, "weight_decay must be finite and >= 0, got inf"),
            ("temperature", math.nan, "temperature must be finite and > 0, got nan"),
            ("temperature", math.inf, "temperature must be finite and > 0, got inf"),
            ("learning_rate", math.nan, "learning_rate must be finite and > 0, got nan"),
            ("learning_rate", math.inf, "learning_rate must be finite and > 0, got inf"),
        ],
    )
    def test_optimizer_and_loss_settings(self, field, value, message):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value}).validate()
        assert str(info.value) == message

    def test_edges_of_the_optimizer_ranges_are_accepted(self):
        TrainConfig(weight_decay=0.0).validate()


def two_cluster_fixture(seed):
    spec = SyntheticSpec(
        n_passages=60, dim=16, n_questions=12, hops=2, n_clusters=2, seed=seed
    )
    data = generate_full(spec)
    return data.passages, extract_pairs(data.records)


class TestTrain:
    def test_two_cluster_structure_reaches_095(self):
        passages, pair_set = two_cluster_fixture(seed=3)
        model = AssocModel.initialize(16, seed=3)
        cfg = TrainConfig(
            batch_size=3, temperature=0.3, learning_rate=7e-3, epochs=50,
            weight_decay=0.01, seed=3,
        )
        _, report = train(model, pair_set, passages, cfg)
        assert report.epochs_run == 50
        assert len(report.epoch_losses) == 50
        assert report.final_train_accuracy >= 0.95
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_deterministic_bit_for_bit(self):
        passages, pair_set = two_cluster_fixture(seed=1)
        runs = []
        for _ in range(2):
            model = AssocModel.initialize(16, seed=1)
            cfg = TrainConfig(batch_size=4, temperature=0.3, learning_rate=5e-3,
                              epochs=5, seed=9)
            trained, report = train(model, pair_set, passages, cfg)
            runs.append((
                [arr.tobytes() for _, arr in trained.param_items()],
                report.epoch_losses,
                report.final_train_accuracy,
            ))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_batches_follow_one_permutation_per_epoch(self, monkeypatch):
        # the generator seeded by config.seed is drawn only for each epoch's
        # pair order; batches are consecutive slices of it, and a trailing
        # single pair is dropped (12 pairs: batches of 5, 5, 2 and of 11, 1)
        passages, pair_set = two_cluster_fixture(seed=10)
        assert len(pair_set.pairs) == 12
        seen = []
        real_backward = training.backward

        def recording_backward(model, batch_a, batch_b, config):
            seen.append((batch_a.copy(), batch_b.copy()))
            return real_backward(model, batch_a, batch_b, config)

        monkeypatch.setattr(training, "backward", recording_backward)
        row_of = {pid: i for i, pid in enumerate(passages.ids)}
        for batch_size, batches_per_epoch in ((5, 3), (11, 1)):
            cfg = TrainConfig(batch_size=batch_size, epochs=3, seed=12)
            seen.clear()
            train(AssocModel.initialize(16, seed=10), pair_set, passages, cfg)
            rng = np.random.default_rng(cfg.seed)
            expected = []
            for _ in range(cfg.epochs):
                order = rng.permutation(12)
                for lo in range(0, 12, batch_size):
                    chunk = order[lo : lo + batch_size]
                    if chunk.size < 2:
                        continue
                    rows = [[row_of[pair_set.pairs[k][side]] for k in chunk]
                            for side in (0, 1)]
                    expected.append((passages.data[rows[0]], passages.data[rows[1]]))
            assert len(expected) == cfg.epochs * batches_per_epoch
            assert len(seen) == len(expected)
            for (got_a, got_b), (want_a, want_b) in zip(seen, expected):
                assert np.array_equal(got_a, want_a)
                assert np.array_equal(got_b, want_b)

    def test_epochs_zero_is_noop(self):
        passages, pair_set = two_cluster_fixture(seed=2)
        model = AssocModel.initialize(16, seed=2)
        before = [arr.copy() for _, arr in model.param_items()]
        _, report = train(model, pair_set, passages, TrainConfig(batch_size=4, epochs=0))
        assert report.epoch_losses == []
        assert report.epochs_run == 0
        assert report.final_train_accuracy is None
        for (_, arr), prev in zip(model.param_items(), before):
            assert np.array_equal(arr, prev)

    def test_batch_size_exceeds_pairs(self):
        passages, pair_set = two_cluster_fixture(seed=5)
        model = AssocModel.initialize(16, seed=5)
        with pytest.raises(ValueError, match="exceeds pair count"):
            train(model, pair_set, passages, TrainConfig(batch_size=4096))

    def test_unresolvable_pair_id(self):
        passages, _ = two_cluster_fixture(seed=6)
        bad = pair_set_for([("ghost-a", "ghost-b")])
        model = AssocModel.initialize(16, seed=6)
        with pytest.raises(ValueError, match="'ghost-a'"):
            train(model, bad, passages, TrainConfig(batch_size=1, epochs=1))

    def test_a_missing_id_is_named_first_in_pair_order(self):
        # the first missing id in pair order, the pair's first id before
        # its second, from `train` and `training_accuracy` alike
        passages, _ = two_cluster_fixture(seed=6)
        a, b, c = passages.ids[:3]
        model = AssocModel.initialize(16, seed=6)
        cases = [
            ([(a, b), (c, "x1"), ("x2", a)], "x1"),
            ([(a, b), ("x2", "x1"), (c, "x1")], "x2"),
            ([(b, "x3"), (a, "x3")], "x3"),
        ]
        for pairs, missing in cases:
            message = f"pair id '{missing}' not present in the embedding matrix"
            with pytest.raises(PairSetError) as info:
                train(model, pair_set_for(pairs), passages, TrainConfig(batch_size=2, epochs=1))
            assert str(info.value) == message
            with pytest.raises(PairSetError) as info:
                training_accuracy(model, pair_set_for(pairs), passages, 2)
            assert str(info.value) == message

    def test_batch_size_one_rejected(self):
        passages, pair_set = two_cluster_fixture(seed=6)
        model = AssocModel.initialize(16, seed=6)
        for epochs in (0, 1):
            with pytest.raises(ValueError, match="batch_size must be >= 2"):
                train(model, pair_set, passages, TrainConfig(batch_size=1, epochs=epochs))

    def test_empty_pair_set(self):
        passages, _ = two_cluster_fixture(seed=7)
        model = AssocModel.initialize(16, seed=7)
        empty = AssocPairSet(pairs=[], pair_splits=[], provenance="unit")
        with pytest.raises(ValueError, match="empty pair set"):
            train(model, empty, passages, TrainConfig())

    def test_report_json_shape(self):
        passages, pair_set = two_cluster_fixture(seed=8)
        model = AssocModel.initialize(16, seed=8)
        _, report = train(model, pair_set, passages,
                          TrainConfig(batch_size=4, epochs=2, seed=8))
        payload = report.to_json_dict()
        assert set(payload) == {"epoch_losses", "final_train_accuracy", "timing", "epochs_run"}
        assert payload["timing"] == {"wall_time": report.wall_time}
        assert payload["epochs_run"] == 2


class TestTrainingAccuracy:
    def test_perfect_separation_scores_one(self):
        # orthonormal rows duplicated under paired ids: logits form an
        # identity matrix under pure normalization
        d = 8
        data = np.eye(d, dtype=np.float32)
        data2 = np.concatenate([data, data], axis=0)
        emb = EmbeddingMatrix(
            ids=[f"e{i}" for i in range(d)] + [f"f{i}" for i in range(d)], data=data2
        )
        pairs = pair_set_for([(f"e{i}", f"f{i}") for i in range(d)])
        model = AssocModel.initialize(d, seed=0)
        model.alpha_raw[:] = 20.0  # pure normalization, logits = identity
        assert training_accuracy(model, pairs, emb, d) == 1.0

    def test_untrained_model_is_chance_level(self):
        rng = np.random.default_rng(123)
        n, d, b = 1000, 24, 50
        data = unit_rows(rng, 2 * n, d)
        emb = EmbeddingMatrix(ids=[f"r{i}" for i in range(2 * n)], data=data)
        pairs = pair_set_for([(f"r{2 * i}", f"r{2 * i + 1}") for i in range(n)])
        model = AssocModel.initialize(d, seed=5)
        acc = training_accuracy(model, pairs, emb, b)
        assert 1.0 / (3 * b) <= acc <= 3.0 / b

    def test_single_pair_has_no_contrast(self):
        emb = EmbeddingMatrix(ids=["a", "b"], data=np.eye(2, dtype=np.float32))
        pairs = pair_set_for([("a", "b")])
        model = AssocModel.initialize(2, seed=0)
        with pytest.raises(ValueError, match="no evaluation batch"):
            training_accuracy(model, pairs, emb, 4)
