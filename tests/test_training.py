"""Contrastive trainer: loss oracle, finite differences, optimizer, schedule."""

import math

import numpy as np
import pytest
from gradcheck import gradient_check

from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel
from assocrank.pairs import AssocPairSet, extract_pairs
from assocrank.synthetic import SyntheticSpec, generate_full
from assocrank.training import (
    AdamW,
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

    def test_random_sampled_gradients_match_fd(self):
        rng = np.random.default_rng(6)
        for trial in range(2):
            d, b, m = 5, 3, 2
            model = AssocModel.initialize(d, seed=10 + trial)
            xa = unit_rows(rng, b, d)
            xb = unit_rows(rng, b, d)
            negs = unit_rows(rng, b * m, d).reshape(b, m, d)
            cfg = TrainConfig(batch_size=b, temperature=0.5, negative_mode="random_sampled")
            worst = gradient_check(model, xa, xb, cfg, negatives=negs)
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

    def test_in_batch_rejects_negatives(self):
        model = AssocModel.initialize(4, seed=0)
        x = np.eye(4, dtype=np.float32)[:2]
        with pytest.raises(ValueError, match="takes no negatives"):
            backward(model, x, x, TrainConfig(), negatives=np.ones((2, 1, 4)))

    def test_random_sampled_requires_negatives(self):
        model = AssocModel.initialize(4, seed=0)
        x = np.eye(4, dtype=np.float32)[:2]
        cfg = TrainConfig(negative_mode="random_sampled")
        with pytest.raises(ValueError, match="requires negatives"):
            backward(model, x, x, cfg)
        with pytest.raises(ValueError, match="negatives shape"):
            backward(model, x, x, cfg, negatives=np.ones((2, 1, 5)))


class TestAdamW:
    def test_zero_gradient_is_pure_decay(self):
        model = AssocModel.initialize(6, seed=4)
        model.alpha_raw[:] = 0.8
        params = dict(model.param_items())
        before = {k: v.copy() for k, v in params.items()}
        cfg = TrainConfig(weight_decay=0.1)
        opt = AdamW(params, cfg)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        opt.step(grads, lr=0.5)
        # every parameter, gate and norms included, shrinks by lr*wd
        for name, arr in params.items():
            assert np.array_equal(arr, before[name] - 0.5 * 0.1 * before[name]), name

    def test_two_steps_match_reference_loop(self):
        rng = np.random.default_rng(8)
        p = rng.normal(size=(3, 3)).astype(np.float32)
        g1 = rng.normal(size=(3, 3)).astype(np.float32)
        g2 = rng.normal(size=(3, 3)).astype(np.float32)
        cfg = TrainConfig(weight_decay=0.05)
        params = {"w": p.copy()}
        opt = AdamW(params, cfg)
        opt.step({"w": g1}, lr=1e-2)
        opt.step({"w": g2}, lr=5e-3)

        ref = p.astype(np.float32).copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t, (g, lr) in enumerate(((g1, 1e-2), (g2, 5e-3)), start=1):
            m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
            v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
            ref = ref - lr * cfg.weight_decay * ref
            mh = m / (1 - cfg.adam_beta1**t)
            vh = v / (1 - cfg.adam_beta2**t)
            ref = ref - lr * mh / (np.sqrt(vh) + cfg.adam_eps)
        assert np.abs(params["w"] - ref).max() < 1e-6

    def test_first_step_is_signlike(self):
        # with fresh moments the bias-corrected update is g/(|g|+eps)
        params = {"w": np.zeros(4, dtype=np.float32)}
        opt = AdamW(params, TrainConfig(weight_decay=0.0))
        g = np.array([0.5, -2.0, 1e-3, 0.0], dtype=np.float32)
        opt.step({"w": g}, lr=0.1)
        expected = -0.1 * np.sign(g) * (np.abs(g) / (np.abs(g) + 1e-8))
        assert np.abs(params["w"] - expected).max() < 1e-7


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        base = 3e-4
        assert cosine_lr(0, 100, base, 0.1) == pytest.approx(base)
        assert cosine_lr(99, 100, base, 0.1) == pytest.approx(0.1 * base)
        # halfway the cosine sits at the arithmetic mean
        mid = cosine_lr(50, 101, base, 0.0)
        assert mid == pytest.approx(base / 2)

    def test_single_epoch(self):
        assert cosine_lr(0, 1, 1e-3, 0.0) == 1e-3

    def test_monotone_nonincreasing(self):
        vals = [cosine_lr(e, 40, 1.0, 0.05) for e in range(40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cosine_lr(5, 5, 1.0, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            cosine_lr(-1, 5, 1.0, 0.0)


class TestTrainConfig:
    def test_production_scale_recipe_accepted(self):
        TrainConfig(batch_size=512, temperature=0.05, learning_rate=3e-4, epochs=100).validate()

    def test_field_validation(self):
        for bad in (
            {"batch_size": 0},
            {"temperature": 0.0},
            {"learning_rate": -1.0},
            {"epochs": -1},
            {"min_lr_fraction": 1.5},
            {"negative_mode": "hard"},
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("adam_beta1", 7.0, "adam_beta1 must be in [0, 1), got 7.0"),
            ("adam_beta1", 1.0, "adam_beta1 must be in [0, 1), got 1.0"),
            ("adam_beta1", -0.1, "adam_beta1 must be in [0, 1), got -0.1"),
            ("adam_beta2", 1.0, "adam_beta2 must be in [0, 1), got 1.0"),
            ("adam_beta2", math.nan, "adam_beta2 must be in [0, 1), got nan"),
            ("adam_eps", 0.0, "adam_eps must be finite and > 0, got 0.0"),
            ("adam_eps", -1e-8, "adam_eps must be finite and > 0, got -1e-08"),
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
        TrainConfig(adam_beta1=0.0, adam_beta2=0.0, weight_decay=0.0).validate()


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

    def test_random_sampled_mode_trains(self):
        passages, pair_set = two_cluster_fixture(seed=4)
        model = AssocModel.initialize(16, seed=4)
        cfg = TrainConfig(batch_size=4, temperature=0.3, learning_rate=5e-3,
                          epochs=3, negative_mode="random_sampled", seed=4)
        _, report = train(model, pair_set, passages, cfg)
        assert report.epochs_run == 3
        assert all(np.isfinite(report.epoch_losses))

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
