"""Residual-gated association transform.

The transform maps a d-dimensional embedding x to

    f(x) = normalize(alpha * x + (1 - alpha) * g(x))

where g is a four-layer MLP (affine -> layernorm -> GELU, three times, then a
final affine, all d -> d) and alpha = logistic(alpha_raw) is a single learned
gate. alpha_raw starts at 0 so the gate opens at 0.5; driving alpha_raw high
collapses f to plain row normalization, which keeps the untrained model safe
to deploy.

Parameter count is 4*(d^2 + d) + 3*2d + 1.

Checkpoint container ("AARM", version 1, little-endian): magic, u32 version,
u32 d, then float32 parameters in this fixed order:

    w0, b0, w1, b1, w2, b2, w3, b3,
    ln0_scale, ln0_shift, ln1_scale, ln1_shift, ln2_scale, ln2_shift,
    alpha_raw

with each weight matrix stored row-major as (d_out, d_in).
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from assocrank.embeddings import EmbeddingMatrix, write_atomic
from assocrank.parallel import map_chunks

MODEL_MAGIC = b"AARM"
MODEL_VERSION = 1

LN_EPS = 1e-5
DEGENERATE_NORM = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class CheckpointError(ValueError):
    """Raised for malformed or truncated model checkpoints."""


@dataclass
class AssocModel:
    """Parameters of the association transform. Arrays share one dtype."""

    weights: list[np.ndarray]    # 4 matrices, each (d, d)
    biases: list[np.ndarray]     # 4 vectors (d,)
    ln_scales: list[np.ndarray]  # 3 vectors (d,)
    ln_shifts: list[np.ndarray]  # 3 vectors (d,)
    alpha_raw: np.ndarray        # shape (1,)

    @property
    def dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    @property
    def alpha(self) -> float:
        return float(1.0 / (1.0 + np.exp(-self.alpha_raw[0])))

    @classmethod
    def initialize(cls, dim: int, seed: int, dtype=np.float32) -> "AssocModel":
        """Seeded init: weights uniform in +-1/sqrt(d), biases zero,
        layernorm at identity, gate at 0.5."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(dim)
        weights = [rng.uniform(-bound, bound, size=(dim, dim)).astype(dtype) for _ in range(4)]
        biases = [np.zeros(dim, dtype=dtype) for _ in range(4)]
        ln_scales = [np.ones(dim, dtype=dtype) for _ in range(3)]
        ln_shifts = [np.zeros(dim, dtype=dtype) for _ in range(3)]
        return cls(weights, biases, ln_scales, ln_shifts, np.zeros(1, dtype=dtype))

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in checkpoint order."""
        items: list[tuple[str, np.ndarray]] = []
        for i in range(4):
            items.append((f"w{i}", self.weights[i]))
            items.append((f"b{i}", self.biases[i]))
        for i in range(3):
            items.append((f"ln{i}_scale", self.ln_scales[i]))
            items.append((f"ln{i}_shift", self.ln_shifts[i]))
        items.append(("alpha_raw", self.alpha_raw))
        return items

    def astype(self, dtype) -> "AssocModel":
        return AssocModel(
            weights=[w.astype(dtype) for w in self.weights],
            biases=[b.astype(dtype) for b in self.biases],
            ln_scales=[s.astype(dtype) for s in self.ln_scales],
            ln_shifts=[s.astype(dtype) for s in self.ln_shifts],
            alpha_raw=self.alpha_raw.astype(dtype),
        )


def param_count(model: AssocModel) -> int:
    return sum(arr.size for _, arr in model.param_items())


def _gelu(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU(y) and erf(y / sqrt(2)), which `_gelu_grad` reuses."""
    e = erf(y * _INV_SQRT2)
    return 0.5 * y * (1.0 + e), e


def _gelu_grad(y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """d GELU / dy at y, given e = erf(y / sqrt(2)) from `_gelu`."""
    phi = np.exp(-0.5 * y * y) * _INV_SQRT_2PI
    return 0.5 * (1.0 + e) + y * phi


def _check_finite(arr: np.ndarray, stage: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values after {stage}")


def _affine(model: AssocModel, h: np.ndarray, i: int, checked: bool) -> np.ndarray:
    if not checked:
        return h @ model.weights[i].T + model.biases[i]
    # an overflow surfaces as the FloatingPointError below, not as a warning
    with np.errstate(over="ignore"):
        z = h @ model.weights[i].T + model.biases[i]
    _check_finite(z, f"affine {i}")
    return z


def _forward(model: AssocModel, x: np.ndarray, keep_cache: bool):
    """f of each row of x: (outputs, cache), the cache None unless `keep_cache`.

    A row whose pre-normalization blend has norm <= 1e-12 comes out as zeros
    and is listed in cache["degenerate"]. A row whose layernorm mean or
    variance, or whose blend norm, overflows is normalized again after
    scaling by its largest entry; other rows keep their bits. With the
    cache, finiteness is checked after every affine map and layernorm,
    raising FloatingPointError("non-finite values after <stage>"). Without
    it nothing is checked, and the caller checks the output once.
    """
    x = np.ascontiguousarray(x, dtype=model.dtype)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise ValueError(f"input shape {x.shape} does not match model dim {model.dim}")

    d = model.dim
    h = x
    lns = []   # per layernorm: (xhat, inv_sigma)
    acts = []  # per block: (y, erf(y / sqrt(2))) with y the LN output
    inputs = [x]
    for i in range(3):
        z = _affine(model, h, i, keep_cache)
        mu = np.add.reduce(z, axis=1, keepdims=True) / d
        centered = z - mu
        var = np.add.reduce(centered * centered, axis=1, keepdims=True) / d
        inv_sigma = 1.0 / np.sqrt(var + LN_EPS)
        xhat = centered * inv_sigma
        overflowed = (~np.isfinite(var[:, 0])).nonzero()[0]
        if overflowed.size:
            # scaled by its largest |entry|, such a row's sum and squares stay
            # finite; LN_EPS / scale**2 is far below the scaled variance's last bit
            scale = np.abs(z[overflowed]).max(axis=1, keepdims=True)
            scaled = z[overflowed] / scale
            scaled -= np.add.reduce(scaled, axis=1, keepdims=True) / d
            sigma = np.sqrt(np.add.reduce(scaled * scaled, axis=1, keepdims=True) / d)
            xhat[overflowed] = scaled / sigma
            inv_sigma[overflowed] = 1.0 / (scale * sigma)
        y = xhat * model.ln_scales[i] + model.ln_shifts[i]
        if keep_cache:
            _check_finite(y, f"layernorm {i}")
        a, e = _gelu(y)
        if keep_cache:
            lns.append((xhat, inv_sigma))
            acts.append((y, e))
            inputs.append(a)
        h = a
    g = _affine(model, h, 3, keep_cache)

    alpha = 1.0 / (1.0 + np.exp(-model.alpha_raw[0]))
    u = alpha * x + (1.0 - alpha) * g
    norms = np.sqrt((u * u).sum(axis=1, keepdims=True))
    degenerate_rows = np.where(norms[:, 0] <= DEGENERATE_NORM)[0]
    safe = np.where(norms <= DEGENERATE_NORM, 1.0, norms)
    f = u / safe
    if degenerate_rows.size:
        f[degenerate_rows] = 0.0
    overflowed = np.isinf(norms[:, 0]).nonzero()[0]
    if overflowed.size:
        # scaled by its largest |u|, such a row's squares stay finite
        scale = np.abs(u[overflowed]).max(axis=1, keepdims=True)
        scaled = u[overflowed] / scale
        length = np.sqrt((scaled * scaled).sum(axis=1, keepdims=True))
        f[overflowed] = scaled / length
        safe[overflowed] = scale * length
    if not keep_cache:
        return f, None
    cache = {
        "inputs": inputs,
        "lns": lns,
        "acts": acts,
        "g": g,
        "alpha": alpha,
        "u": u,
        "norms": safe,
        "f": f,
        "degenerate": degenerate_rows,
    }
    return f, cache


def forward_batch(model: AssocModel, x: np.ndarray):
    """The training pass: f of each row of x, checked at every stage.
    Returns (outputs, cache). A row whose pre-normalization blend has norm
    <= 1e-12 raises FloatingPointError."""
    f, cache = _forward(model, x, keep_cache=True)
    if cache["degenerate"].size:
        raise FloatingPointError(
            f"degenerate pre-normalization vector at row {int(cache['degenerate'][0])}"
        )
    return f, cache


def _infer(model: AssocModel, x: np.ndarray) -> np.ndarray:
    """The inference pass: f of each row of the 2-D x, bit for bit as
    forward_batch computes it, with degenerate rows as zeros.

    No cache, one error state and one finiteness check, of the output. A
    non-finite output is computed again with the checks of every stage, so
    the error names the stage, as forward_batch's does.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out, _ = _forward(model, x, keep_cache=False)
    if not np.isfinite(out).all():
        out, _ = _forward(model, x, keep_cache=True)
    return out


def forward(model: AssocModel, x: np.ndarray) -> np.ndarray:
    """Transform a single vector by the inference pass; a degenerate vector
    gives zeros."""
    return _infer(model, np.asarray(x)[None, :])[0]


def backward_batch(model: AssocModel, cache: dict, df: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given d(loss)/d(outputs) for a forward_batch call."""
    x = cache["inputs"][0]
    f = cache["f"]
    norms = cache["norms"]
    alpha = cache["alpha"]
    g = cache["g"]

    # normalize: u -> u / ||u||
    du = (df - f * (df * f).sum(axis=1, keepdims=True)) / norms
    dalpha = float((du * (x - g)).sum())
    dalpha_raw = np.array([dalpha * alpha * (1.0 - alpha)], dtype=model.dtype)
    dg = (1.0 - alpha) * du

    grads: dict[str, np.ndarray] = {"alpha_raw": dalpha_raw}
    dh = dg
    grads["w3"] = dh.T @ cache["inputs"][3]
    grads["b3"] = dh.sum(axis=0)
    dh = dh @ model.weights[3]
    for i in (2, 1, 0):
        y, e = cache["acts"][i]
        dh = dh * _gelu_grad(y, e)
        xhat, inv_sigma = cache["lns"][i]
        grads[f"ln{i}_scale"] = (dh * xhat).sum(axis=0)
        grads[f"ln{i}_shift"] = dh.sum(axis=0)
        dxhat = dh * model.ln_scales[i]
        dz = inv_sigma * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        grads[f"w{i}"] = dz.T @ cache["inputs"][i]
        grads[f"b{i}"] = dz.sum(axis=0)
        dh = dz @ model.weights[i]
    return grads


@dataclass
class TransformedMatrix:
    """Passage matrix pushed through f once, for reuse at query time."""

    source: str
    data: np.ndarray


_TRANSFORM_BLOCK = 1024


def transform_matrix(
    model: AssocModel, matrix: EmbeddingMatrix, source: str = ""
) -> TransformedMatrix:
    """Apply f to every row, in the source matrix's row order.

    Each block of `_TRANSFORM_BLOCK` rows is one inference pass, run by
    `parallel.map_chunks` on the caller and the helpers that BLAS leaves CPUs
    for. The bits depend on the block size but not on the thread count. The
    caller's numpy error state applies in every thread, and an error is
    raised from the lowest failing block.
    """
    if matrix.dim != model.dim:
        raise ValueError(f"matrix dim {matrix.dim} does not match model dim {model.dim}")
    out = np.empty_like(matrix.data)

    def run_block(block: int) -> None:
        rows = slice(block * _TRANSFORM_BLOCK, (block + 1) * _TRANSFORM_BLOCK)
        out[rows] = _infer(model, matrix.data[rows])

    map_chunks(run_block, -(-matrix.rows // _TRANSFORM_BLOCK))
    return TransformedMatrix(source=source, data=out)


def save_model(model: AssocModel, path: str) -> None:
    buf = io.BytesIO()
    buf.write(MODEL_MAGIC)
    buf.write(struct.pack("<I", MODEL_VERSION))
    buf.write(struct.pack("<I", model.dim))
    for _, arr in model.param_items():
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    write_atomic(path, buf.getvalue())


def load_model(path: str) -> AssocModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MODEL_MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}, expected {MODEL_MAGIC!r}")
    if len(raw) < 12:
        raise CheckpointError("truncated header")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != MODEL_VERSION:
        raise CheckpointError(f"unsupported version {version}, expected {MODEL_VERSION}")
    (dim,) = struct.unpack("<I", raw[8:12])
    if dim < 1:
        raise CheckpointError(f"invalid dim {dim}")
    expected = 4 * (dim * dim + dim) + 3 * 2 * dim + 1
    payload = raw[12:]
    if len(payload) != expected * 4:
        raise CheckpointError(
            f"payload holds {len(payload) // 4} floats, expected {expected} for d={dim}"
        )
    flat = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(flat).all():
        raise CheckpointError("non-finite parameter values")
    model = AssocModel.initialize(dim, seed=0)
    pos = 0
    for _, arr in model.param_items():
        arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size
    return model
