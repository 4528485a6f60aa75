"""Residual-gated association transform.

The transform maps a d-dimensional embedding x to

    f(x) = normalize(alpha * x + (1 - alpha) * g(x))

where g is a four-layer MLP (affine -> layernorm -> GELU, three times, then a
final affine, all d -> d) and alpha = logistic(alpha_raw) is a single learned
gate. alpha_raw starts at 0 so the gate opens at 0.5; driving alpha_raw high
collapses f to plain row normalization, which keeps the untrained model safe
to deploy.

Parameter count is 4*(d^2 + d) + 3*2d + 1 (`param_size`).

The parameters are one contiguous vector in this fixed (checkpoint) order:

    w0, b0, w1, b1, w2, b2, w3, b3,
    ln0_scale, ln0_shift, ln1_scale, ln1_shift, ln2_scale, ln2_shift,
    alpha_raw

with each weight matrix stored row-major as (d_out, d_in). Each named tensor
is a view into that vector, and gradients share its layout, so the optimizer
and checkpoint I/O each act on the whole vector at once.

Checkpoint container ("AARM", version 1, little-endian): magic, u32 version,
u32 d, then the parameter vector as float32.
"""

from __future__ import annotations

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


def param_size(dim: int) -> int:
    """Parameter count of a d-wide transform."""
    return 4 * (dim * dim + dim) + 3 * 2 * dim + 1


def param_views(flat: np.ndarray, dim: int) -> dict[str, np.ndarray]:
    """The tensors of a d-wide transform by name, in checkpoint order, as
    views into `flat`, the contiguous 1-D vector that holds them all."""
    if flat.shape != (param_size(dim),) or not flat.flags.c_contiguous:
        raise ValueError(f"need a contiguous vector of {param_size(dim)} parameters for d={dim}")
    shapes = []
    for i in range(4):
        shapes += [(f"w{i}", (dim, dim)), (f"b{i}", (dim,))]
    for i in range(3):
        shapes += [(f"ln{i}_scale", (dim,)), (f"ln{i}_shift", (dim,))]
    shapes.append(("alpha_raw", (1,)))
    views = {}
    pos = 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    return views


class AssocModel:
    """Parameters of the association transform: `params`, one contiguous 1-D
    vector in checkpoint order, and every tensor as a view into it."""

    def __init__(self, params: np.ndarray, dim: int):
        self.params = params
        views = param_views(params, dim)
        self.weights = [views[f"w{i}"] for i in range(4)]  # (d, d) each
        self.biases = [views[f"b{i}"] for i in range(4)]  # (d,) each
        self.ln_scales = [views[f"ln{i}_scale"] for i in range(3)]
        self.ln_shifts = [views[f"ln{i}_shift"] for i in range(3)]
        self.alpha_raw = views["alpha_raw"]  # shape (1,)
        self._views = views

    @property
    def dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    @property
    def alpha(self) -> float:
        return float(1.0 / (1.0 + np.exp(-self.alpha_raw[0])))

    @classmethod
    def initialize(cls, dim: int, seed: int) -> "AssocModel":
        """Seeded float32 init: weights uniform in +-1/sqrt(d), biases zero,
        layernorm at identity, gate at 0.5."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(dim)
        model = cls(np.zeros(param_size(dim), dtype=np.float32), dim)
        for w in model.weights:
            w[...] = rng.uniform(-bound, bound, size=(dim, dim))
        for s in model.ln_scales:
            s[...] = 1.0
        return model

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in checkpoint order."""
        return list(self._views.items())

    def astype(self, dtype) -> "AssocModel":
        return AssocModel(self.params.astype(dtype), self.dim)


def param_count(model: AssocModel) -> int:
    return model.params.size


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
    z = h @ model.weights[i].T + model.biases[i]
    if checked:
        _check_finite(z, f"affine {i}")
    return z


def _forward(model: AssocModel, x: np.ndarray, keep_cache: bool):
    """f of each row of x: (outputs, cache), the cache None unless `keep_cache`.

    One pass under one error state, with one finiteness check, of f. A
    non-finite f is computed again with the checks of every stage, raising
    FloatingPointError("non-finite values after <stage>") for the first
    affine map or layernorm that is not finite: any non-finite value there
    leaves its row of f non-finite. A 2-D x is checked as a whole; the rows
    of a (Q, 1, d) stack are checked one at a time, in order, so that the
    stack raises the error its first failing row raises alone.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, cache = _forward_pass(model, x, keep_cache, checked=False)
        if not np.isfinite(f).all():
            parts = [x]
            if np.ndim(x) == 3:
                parts = [x[i : i + 1] for i in (~np.isfinite(f).all(axis=(1, 2))).nonzero()[0]]
            for part in parts:
                _forward_pass(model, part, keep_cache=False, checked=True)
    return f, cache


def _forward_pass(model: AssocModel, x: np.ndarray, keep_cache: bool, checked: bool):
    """`_forward`'s arithmetic, with every stage checked if `checked`.

    x is a (n, d) block or a (n, 1, d) stack: the reductions run along the
    last axis and the row lists are tuples of indices, so one body serves
    both shapes. A row whose pre-normalization blend has norm <= 1e-12
    comes out as zeros and is listed in cache["degenerate"]. A row whose
    layernorm mean or variance, or whose blend norm, overflows is normalized
    again after scaling by its largest entry; other rows keep their bits.
    """
    x = np.ascontiguousarray(x, dtype=model.dtype)
    if x.ndim not in (2, 3) or x.shape[1:] not in ((model.dim,), (1, model.dim)):
        raise ValueError(f"input shape {x.shape} does not match model dim {model.dim}")

    d = model.dim
    h = x
    lns = []   # per layernorm: (xhat, inv_sigma)
    acts = []  # per block: (y, erf(y / sqrt(2))) with y the LN output
    inputs = [x]
    for i in range(3):
        z = _affine(model, h, i, checked)
        mu = np.add.reduce(z, axis=-1, keepdims=True) / d
        centered = z - mu
        var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
        inv_sigma = 1.0 / np.sqrt(var + LN_EPS)
        xhat = centered * inv_sigma
        overflowed = (~np.isfinite(var[..., 0])).nonzero()
        if overflowed[0].size:
            # scaled by its largest |entry|, such a row's sum and squares stay
            # finite; LN_EPS / scale**2 is far below the scaled variance's last bit
            scale = np.abs(z[overflowed]).max(axis=-1, keepdims=True)
            scaled = z[overflowed] / scale
            scaled -= np.add.reduce(scaled, axis=-1, keepdims=True) / d
            sigma = np.sqrt(np.add.reduce(scaled * scaled, axis=-1, keepdims=True) / d)
            xhat[overflowed] = scaled / sigma
            inv_sigma[overflowed] = 1.0 / (scale * sigma)
        y = xhat * model.ln_scales[i] + model.ln_shifts[i]
        if checked:
            _check_finite(y, f"layernorm {i}")
        a, e = _gelu(y)
        if keep_cache:
            lns.append((xhat, inv_sigma))
            acts.append((y, e))
            inputs.append(a)
        h = a
    g = _affine(model, h, 3, checked)

    alpha = 1.0 / (1.0 + np.exp(-model.alpha_raw[0]))
    u = alpha * x + (1.0 - alpha) * g
    norms = np.sqrt((u * u).sum(axis=-1, keepdims=True))
    degenerate_rows = (norms[..., 0] <= DEGENERATE_NORM).nonzero()
    safe = np.where(norms <= DEGENERATE_NORM, 1.0, norms)
    f = u / safe
    if degenerate_rows[0].size:
        f[degenerate_rows] = 0.0
    overflowed = np.isinf(norms[..., 0]).nonzero()
    if overflowed[0].size:
        # scaled by its largest |u|, such a row's squares stay finite
        scale = np.abs(u[overflowed]).max(axis=-1, keepdims=True)
        scaled = u[overflowed] / scale
        length = np.sqrt((scaled * scaled).sum(axis=-1, keepdims=True))
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
        "degenerate": degenerate_rows[0],
    }
    return f, cache


def forward_batch(model: AssocModel, x: np.ndarray):
    """The training pass: f of each row of x. Returns (outputs, cache). A
    row whose pre-normalization blend has norm <= 1e-12 raises
    FloatingPointError."""
    f, cache = _forward(model, x, keep_cache=True)
    if cache["degenerate"].size:
        raise FloatingPointError(
            f"degenerate pre-normalization vector at row {int(cache['degenerate'][0])}"
        )
    return f, cache


def _infer(model: AssocModel, x: np.ndarray) -> np.ndarray:
    """The inference pass: f of each row of a (n, d) block, bit for bit as
    forward_batch computes it, or of a (n, 1, d) stack, with degenerate
    rows as zeros."""
    return _forward(model, x, keep_cache=False)[0]


def forward(model: AssocModel, x: np.ndarray) -> np.ndarray:
    """Transform a (d,) vector, or each row of a (Q, d) block, by the
    inference pass; a degenerate row gives zeros.

    Each row gets the bits it gets alone. A block of two or more rows runs
    as a (Q, 1, d) stack, whose matmuls are one matrix-vector product per
    row, as a single row's are; a 2-D GEMM over the block would round
    differently. A non-finite row raises the error it raises alone.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        return _infer(model, x[None, :])[0]
    if x.ndim == 2 and len(x) > 1:
        return _infer(model, x[:, None, :])[:, 0]
    # a block of one is already a matrix-vector product; the stack would
    # only add its cost
    return _infer(model, x)


class Gradients(dict):
    """Parameter gradients by tensor name, each a view into `flat`, which
    holds them all in checkpoint order."""

    def __init__(self, flat: np.ndarray, dim: int):
        super().__init__(param_views(flat, dim))
        self.flat = flat


def backward_batch(model: AssocModel, cache: dict, df: np.ndarray) -> Gradients:
    """Parameter gradients given d(loss)/d(outputs) for a forward_batch call."""
    x = cache["inputs"][0]
    f = cache["f"]
    norms = cache["norms"]
    alpha = cache["alpha"]
    g = cache["g"]
    d = model.dim
    grads = Gradients(np.empty_like(model.params), d)

    # normalize: u -> u / ||u||
    du = (df - f * (df * f).sum(axis=1, keepdims=True)) / norms
    dalpha = float((du * (x - g)).sum())
    grads["alpha_raw"][0] = dalpha * alpha * (1.0 - alpha)
    dg = (1.0 - alpha) * du

    dh = dg
    np.matmul(dh.T, cache["inputs"][3], out=grads["w3"])
    np.add.reduce(dh, axis=0, out=grads["b3"])
    dh = dh @ model.weights[3]
    for i in (2, 1, 0):
        y, e = cache["acts"][i]
        dh = dh * _gelu_grad(y, e)
        xhat, inv_sigma = cache["lns"][i]
        np.add.reduce(dh * xhat, axis=0, out=grads[f"ln{i}_scale"])
        np.add.reduce(dh, axis=0, out=grads[f"ln{i}_shift"])
        dxhat = dh * model.ln_scales[i]
        dz = inv_sigma * (
            dxhat
            - np.add.reduce(dxhat, axis=1, keepdims=True) / d
            - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / d)
        )
        np.matmul(dz.T, cache["inputs"][i], out=grads[f"w{i}"])
        np.add.reduce(dz, axis=0, out=grads[f"b{i}"])
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
    header = MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, model.dim)
    write_atomic(path, header + model.params.astype("<f4", copy=False).tobytes())


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
    expected = param_size(dim)
    payload_bytes = len(raw) - 12
    if payload_bytes != expected * 4:
        raise CheckpointError(
            f"payload holds {payload_bytes // 4} floats, expected {expected} for d={dim}"
        )
    # a native, writable copy of the little-endian payload
    params = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float32)
    if not np.isfinite(params).all():
        raise CheckpointError("non-finite parameter values")
    return AssocModel(params, dim)
