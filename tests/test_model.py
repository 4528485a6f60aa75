"""Association transform: reference forward, init, checkpoints."""

import math
import struct
import threading

import numpy as np
import pytest
from scipy.special import erf

from assocrank import model as model_module
from assocrank import parallel
from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import (
    LN_EPS,
    MODEL_MAGIC,
    AssocModel,
    CheckpointError,
    forward,
    forward_batch,
    load_model,
    param_count,
    save_model,
    transform_matrix,
)


def reference_forward(model, x):
    """Float64 re-derivation of the transform from its parameter arrays."""
    p = {name: arr.astype(np.float64) for name, arr in model.param_items()}
    x = np.asarray(x, dtype=np.float64)
    h = x
    for i in range(3):
        z = h @ p[f"w{i}"].T + p[f"b{i}"]
        mu = z.mean(axis=1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=1, keepdims=True)
        xhat = (z - mu) / np.sqrt(var + LN_EPS)
        y = xhat * p[f"ln{i}_scale"] + p[f"ln{i}_shift"]
        h = 0.5 * y * (1.0 + erf(y / math.sqrt(2.0)))
    g = h @ p["w3"].T + p["b3"]
    alpha = 1.0 / (1.0 + math.exp(-float(p["alpha_raw"][0])))
    u = alpha * x + (1.0 - alpha) * g
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def perturbed_model(dim, seed):
    """Init plus random layernorm/bias/gate noise so no parameter is trivial."""
    rng = np.random.default_rng(seed)
    model = AssocModel.initialize(dim, seed=seed)
    for i in range(4):
        model.biases[i][:] = rng.normal(scale=0.2, size=dim).astype(np.float32)
    for i in range(3):
        model.ln_scales[i][:] = (1.0 + rng.normal(scale=0.3, size=dim)).astype(np.float32)
        model.ln_shifts[i][:] = rng.normal(scale=0.2, size=dim).astype(np.float32)
    model.alpha_raw[:] = rng.normal(scale=1.0, size=1).astype(np.float32)
    return model


class TestParamCount:
    def test_formula(self):
        for d, expected in ((1, 15), (2, 37), (8, 337), (1024, 4_204_545)):
            model = AssocModel.initialize(d, seed=0)
            assert param_count(model) == expected
            assert expected == 4 * (d * d + d) + 6 * d + 1

    def test_item_shapes(self):
        model = AssocModel.initialize(5, seed=1)
        shapes = {name: arr.shape for name, arr in model.param_items()}
        assert len(shapes) == 15
        for i in range(4):
            assert shapes[f"w{i}"] == (5, 5)
            assert shapes[f"b{i}"] == (5,)
        for i in range(3):
            assert shapes[f"ln{i}_scale"] == (5,)
            assert shapes[f"ln{i}_shift"] == (5,)
        assert shapes["alpha_raw"] == (1,)


class TestInitialize:
    def test_deterministic(self):
        a = AssocModel.initialize(16, seed=3)
        b = AssocModel.initialize(16, seed=3)
        for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(pa, pb)
        c = AssocModel.initialize(16, seed=4)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_weight_bounds_and_fixed_params(self):
        d = 64
        model = AssocModel.initialize(d, seed=5)
        bound = 1.0 / math.sqrt(d)
        for w in model.weights:
            assert np.abs(w).max() <= bound
        for b in model.biases:
            assert np.all(b == 0)
        for s in model.ln_scales:
            assert np.all(s == 1)
        for s in model.ln_shifts:
            assert np.all(s == 0)
        assert model.alpha_raw[0] == 0.0
        assert model.alpha == 0.5

    def test_bad_dim(self):
        with pytest.raises(ValueError, match="dim must be"):
            AssocModel.initialize(0, seed=0)


class TestForward:
    def test_matches_float64_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            d = int(rng.integers(4, 24))
            n = int(rng.integers(1, 9))
            model = perturbed_model(d, seed=trial)
            x = rng.normal(size=(n, d)).astype(np.float32)
            out, _ = forward_batch(model, x)
            ref = reference_forward(model, x)
            assert np.abs(out - ref).max() < 1e-4

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(12)
        model = perturbed_model(10, seed=9)
        out, _ = forward_batch(model, rng.normal(size=(20, 10)).astype(np.float32))
        norms = np.linalg.norm(out.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-5

    def test_single_vector_matches_batch_row(self):
        # BLAS kernels differ by batch shape, so agreement is tight but not
        # bitwise
        rng = np.random.default_rng(13)
        model = perturbed_model(8, seed=2)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        batch, _ = forward_batch(model, x)
        for i in range(4):
            assert np.abs(forward(model, x[i]) - batch[i]).max() < 1e-6

    def test_single_vector_equals_a_one_row_batch_bit_for_bit(self):
        # forward is the lean pass over the same arithmetic
        rng = np.random.default_rng(16)
        for trial in range(20):
            d = int(rng.integers(1, 40))
            model = perturbed_model(d, seed=trial)
            for x in rng.normal(size=(5, d)).astype(np.float32):
                batch, _ = forward_batch(model, x[None, :])
                assert forward(model, x).tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("stage", ["affine 0", "layernorm 0", "affine 1"])
    def test_single_vector_errors_name_the_stage(self, stage):
        model = perturbed_model(8, seed=3)
        x = np.random.default_rng(17).normal(size=8).astype(np.float32)
        if stage == "affine 0":
            model.weights[0][:] = 3e38
            x[:] = 2.0  # every output of the first affine map overflows
        elif stage == "layernorm 0":
            model.ln_scales[0][:] = 3e38
        else:
            model.weights[1][:] = 3e38
        # forward_batch warns of an overflow in a layernorm before it raises
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as batch_error:
            forward_batch(model, x[None, :])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as single_error:
            forward(model, x)
        assert str(single_error.value) == str(batch_error.value)
        assert str(single_error.value) == f"non-finite values after {stage}"

    def test_single_vector_degenerate_policies(self):
        # inference zeroes a degenerate vector; training raises on it
        model = AssocModel.initialize(7, seed=4)
        zero = np.zeros(7, dtype=np.float32)
        assert forward(model, zero).tolist() == [0.0] * 7
        with pytest.raises(FloatingPointError, match="row 0"):
            forward_batch(model, zero[None, :])

    def test_gate_saturation_is_pure_normalization(self):
        # float32 logistic saturates to exactly 1.0 at alpha_raw = 20, so the
        # blend contributes exactly 0 * g and the transform reduces to row
        # normalization
        rng = np.random.default_rng(14)
        model = perturbed_model(12, seed=6)
        model.alpha_raw[:] = 20.0
        assert model.alpha == 1.0
        x = rng.normal(size=(30, 12)).astype(np.float32)
        out, _ = forward_batch(model, x)
        expected = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert np.abs(out - expected).max() < 1e-6

    def test_shape_mismatch(self):
        model = AssocModel.initialize(6, seed=0)
        with pytest.raises(ValueError, match="does not match model dim"):
            forward_batch(model, np.zeros((2, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="does not match model dim"):
            forward_batch(model, np.zeros(6, dtype=np.float32))

    def test_degenerate_row_policies(self):
        # at init g(0) = 0 and the blend of a zero row is exactly zero
        model = AssocModel.initialize(7, seed=4)
        x = np.ones((3, 7), dtype=np.float32)
        x[1] = 0.0
        with pytest.raises(FloatingPointError, match="^degenerate pre-normalization vector at row 1$"):
            forward_batch(model, x)
        out, cache = model_module._forward(model, x, keep_cache=True)
        assert cache["degenerate"].tolist() == [1]
        assert out.tobytes() == model_module._infer(model, x).tobytes()
        assert np.all(out[1] == 0.0)
        for row in (0, 2):
            assert abs(np.linalg.norm(out[row].astype(np.float64)) - 1.0) < 1e-5

    # the layernorm's variance overflows for these rows too, under
    # forward_batch's default error state
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_blend_whose_squares_overflow_comes_out_unit_norm(self):
        model = perturbed_model(64, seed=9)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(5, 64)).astype(np.float32)
        x[2] = 1e20
        x[4] = rng.normal(size=64) * 1e19
        _, cache = model_module._forward(model, x, keep_cache=True)
        with np.errstate(over="ignore"):
            assert np.isinf((cache["u"] * cache["u"]).sum(axis=1)).tolist() == [0, 0, 1, 0, 1]
        u = cache["u"].astype(np.float64)
        expected = u / np.linalg.norm(u, axis=1, keepdims=True)
        batch, _ = forward_batch(model, x)
        transformed = transform_matrix(model, EmbeddingMatrix([f"p{i}" for i in range(5)], x)).data
        for out in (batch, transformed, np.stack([forward(model, row) for row in x])):
            assert np.abs(out - expected).max() < 1e-6
        # the other rows keep the bits they have beside rows of ordinary size
        ordinary = x.copy()
        ordinary[[2, 4]] = 1.0
        assert batch[[0, 1, 3]].tobytes() == forward_batch(model, ordinary)[0][[0, 1, 3]].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_layernorm_whose_variance_overflows_normalizes_the_row(self):
        # with zero biases every affine output of 1e19 * x is 1e19 times
        # that of x, and layernorm is scale-invariant. x's entries are about
        # 10, so LN_EPS moves x's own xhat by less than 1e-6
        model = AssocModel.initialize(64, seed=0)
        x = 10.0 * np.random.default_rng(16).normal(size=(3, 64)).astype(np.float32)
        _, small = model_module._forward(model, x, keep_cache=True)
        _, large = model_module._forward(model, 1e19 * x, keep_cache=True)
        (xhat, inv_sigma), (big_xhat, big_inv_sigma) = small["lns"][0], large["lns"][0]
        assert np.abs(big_xhat - xhat).max() < 1e-5
        # the cache holds the inv_sigma that backward_batch pairs with xhat
        assert np.abs(big_inv_sigma * 1e19 / inv_sigma - 1.0).max() < 1e-5
        for i in (1, 2):
            assert np.abs(large["lns"][i][0] - small["lns"][i][0]).max() < 1e-4

    def test_a_constant_1e20_vector_comes_out_unit_norm(self):
        model = AssocModel.initialize(64, seed=0)
        x = np.full(64, 1e20, np.float32)
        out = forward(model, x)
        assert np.isfinite(out).all()
        assert abs(np.linalg.norm(out.astype(np.float64)) - 1.0) < 1e-6


class TestCopyAstype:
    def test_astype_dtype(self):
        model = AssocModel.initialize(5, seed=7)
        wide = model.astype(np.float64)
        assert wide.dtype == np.float64
        assert np.allclose(wide.weights[2], model.weights[2])


class TestTransformMatrix:
    def test_matches_forward_and_respects_batching(self):
        rng = np.random.default_rng(15)
        model = perturbed_model(9, seed=1)
        data = rng.normal(size=(25, 9)).astype(np.float32)
        m = EmbeddingMatrix(ids=[f"p{i}" for i in range(25)], data=data)
        whole, _ = forward_batch(model, data)
        t = transform_matrix(model, m, source="unit")
        assert np.array_equal(t.data, whole)
        assert t.source == "unit"

    def test_dim_mismatch(self):
        model = AssocModel.initialize(4, seed=0)
        m = EmbeddingMatrix(ids=["a"], data=np.ones((1, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="does not match model dim"):
            transform_matrix(model, m)

    @staticmethod
    def serial_transform(model, data, batch=1024):
        """Reference: one checked pass per block of `batch` rows, in order."""
        out = np.empty_like(data)
        for start in range(0, data.shape[0], batch):
            block, _ = model_module._forward(model, data[start : start + batch], keep_cache=True)
            out[start : start + batch] = block
        return out

    @pytest.fixture
    def three_threads(self, pool_of):
        pool_of(3)

    @pytest.mark.parametrize("n", [1, 1024, 1025, 2500])
    def test_threaded_blocks_equal_the_serial_loop(self, n, three_threads):
        # at init g(0) = 0, so a zero row is degenerate; put one at a block edge
        model = AssocModel.initialize(16, seed=3)
        data = np.random.default_rng(n).normal(size=(n, 16)).astype(np.float32)
        data[min(n, 1025) - 1] = 0.0
        threads = threading.active_count()
        t = transform_matrix(model, EmbeddingMatrix([f"p{i}" for i in range(n)], data))
        assert threading.active_count() == threads
        expected = self.serial_transform(model, data)
        assert t.data.tobytes() == expected.tobytes()
        assert np.all(t.data[min(n, 1025) - 1] == 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 3e38 row's overflow
    def test_errors_match_the_serial_loop(self, three_threads):
        model = AssocModel.initialize(16, seed=3)
        data = np.random.default_rng(1).normal(size=(2500, 16)).astype(np.float32)
        data[1500] = 3e38  # overflows, in the middle block
        m = EmbeddingMatrix([f"p{i}" for i in range(2500)], data)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError) as serial:
            self.serial_transform(model, data)
        with pytest.raises(FloatingPointError) as threaded:
            transform_matrix(model, m)
        assert str(threaded.value) == str(serial.value)
        assert str(serial.value).startswith("non-finite values after ")
        assert threading.active_count() == threads

        # the caller's numpy error state holds in the pool's threads too:
        # squaring a 1e-30 row in the layernorm underflows float32
        data[1500] = 1e-30
        m = EmbeddingMatrix(m.ids, data)
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError) as serial:
                self.serial_transform(model, data)
            with pytest.raises(FloatingPointError) as threaded:
                transform_matrix(model, m)
        assert str(threaded.value) == str(serial.value) == "underflow encountered in multiply"
        assert threading.active_count() == threads

    def test_lowest_failing_block_is_raised(self, monkeypatch, three_threads):
        def failing_infer(model, x):
            start = int(x[0, 0])
            if start >= 1024:
                raise FloatingPointError(f"block at row {start}")
            return x

        monkeypatch.setattr(model_module, "_infer", failing_infer)
        data = np.repeat(np.arange(4000, dtype=np.float32)[:, None], 4, axis=1)
        m = EmbeddingMatrix([f"p{i}" for i in range(4000)], data)
        with pytest.raises(FloatingPointError, match="^block at row 1024$"):
            transform_matrix(AssocModel.initialize(4, seed=0), m)

    @pytest.mark.parametrize(
        "cpus, blas, workers",
        [(2, 2, 1), (2, 1, 2), (1, 1, 1), (8, 2, 3), (8, 3, 2), (3, 4, 1)],
    )
    def test_pool_leaves_blas_its_cpus(self, monkeypatch, cpus, blas, workers):
        sizes, ran_on = [], set()
        pool_size, infer = parallel._pool_size, model_module._infer

        def recording_pool_size(chunks):
            sizes.append(pool_size(chunks))
            return sizes[-1]

        def recording_infer(model, x):
            ran_on.add(threading.get_ident())
            return infer(model, x)

        monkeypatch.setattr(parallel, "_pool_size", recording_pool_size)
        monkeypatch.setattr(model_module, "_infer", recording_infer)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "_BLAS_THREADS", blas)
        data = np.random.default_rng(2).normal(size=(2500, 4)).astype(np.float32)
        model = AssocModel.initialize(4, seed=0)
        t = transform_matrix(model, EmbeddingMatrix([f"p{i}" for i in range(2500)], data))
        assert sizes == [workers]  # never more than the 3 blocks
        assert 1 <= len(ran_on) <= workers
        assert t.data.tobytes() == self.serial_transform(model, data).tobytes()

    # each case matches the number of threads numpy's OpenBLAS started on 2 CPUs
    @pytest.mark.parametrize(
        "env, threads",
        [
            ({}, 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, 1),
            ({"GOTO_NUM_THREADS": "1"}, 1),
            ({"OMP_NUM_THREADS": "1"}, 1),
            ({"MKL_NUM_THREADS": "1"}, 2),
            ({"OPENBLAS_NUM_THREADS": "4"}, 2),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
            ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 1),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ],
    )
    def test_blas_threads_are_read_as_openblas_reads_them(self, monkeypatch, env, threads):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        assert parallel._blas_threads() == threads


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = perturbed_model(13, seed=8)
        path = tmp_path / "m.aarm"
        save_model(model, str(path))
        back = load_model(str(path))
        for (na, pa), (nb, pb) in zip(model.param_items(), back.param_items()):
            assert na == nb
            assert pa.tobytes() == pb.tobytes()

    def test_header_layout(self, tmp_path):
        model = AssocModel.initialize(3, seed=0)
        path = tmp_path / "m.aarm"
        save_model(model, str(path))
        raw = path.read_bytes()
        assert raw[:4] == MODEL_MAGIC
        assert struct.unpack("<I", raw[4:8]) == (1,)
        assert struct.unpack("<I", raw[8:12]) == (3,)
        n_params = 4 * (9 + 3) + 6 * 3 + 1
        assert len(raw) == 12 + 4 * n_params

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.aarm"
        path.write_bytes(b"WHAT" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_model(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.aarm"
        path.write_bytes(MODEL_MAGIC + b"\x01")
        with pytest.raises(CheckpointError, match="truncated header"):
            load_model(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.aarm"
        path.write_bytes(MODEL_MAGIC + struct.pack("<II", 9, 3))
        with pytest.raises(CheckpointError, match="unsupported version"):
            load_model(str(path))

    def test_payload_size_mismatch(self, tmp_path):
        model = AssocModel.initialize(3, seed=0)
        path = tmp_path / "m.aarm"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="expected"):
            load_model(str(path))

    def test_non_finite_parameters(self, tmp_path):
        model = AssocModel.initialize(3, seed=0)
        model.weights[1][0, 0] = np.nan
        path = tmp_path / "m.aarm"
        save_model(model, str(path))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_model(str(path))

    def test_invalid_dim(self, tmp_path):
        path = tmp_path / "m.aarm"
        path.write_bytes(MODEL_MAGIC + struct.pack("<II", 1, 0))
        with pytest.raises(CheckpointError, match="invalid dim"):
            load_model(str(path))
