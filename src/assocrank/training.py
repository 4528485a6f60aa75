"""Contrastive training of the association transform.

Both sides of every pair pass through the transform; a batch of B pairs gives
a B x B logit matrix whose diagonal holds the positives, and the loss is the
mean of the row-wise and column-wise cross entropies. Gradients are computed
analytically (no autograd); the test suite checks them against central finite
differences in float64 (`tests/gradcheck.py`).

Arithmetic follows the deployment path: parameters and activations in
float32, loss values accumulated in float64.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, backward_batch, forward_batch
from assocrank.pairs import AssocPairSet

logger = logging.getLogger(__name__)

NEGATIVE_MODES = ("in_batch", "random_sampled")


class PairSetError(ValueError):
    """Raised by `train` for a pair set it cannot train on: empty, naming an
    id the embeddings lack, or smaller than one batch."""


@dataclass
class TrainConfig:
    batch_size: int = 512
    temperature: float = 0.05
    learning_rate: float = 3e-4
    epochs: int = 100
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    min_lr_fraction: float = 0.0
    negative_mode: str = "in_batch"
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # each test is written so that NaN fails it
        for name in ("temperature", "learning_rate", "adam_eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 <= self.min_lr_fraction <= 1.0:
            raise ValueError(f"min_lr_fraction must be in [0, 1], got {self.min_lr_fraction}")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ValueError(f"negative_mode must be one of {NEGATIVE_MODES}")


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    final_train_accuracy: float | None = None
    wall_time: float = 0.0
    epochs_run: int = 0

    def to_json_dict(self) -> dict:
        """The `train.report` file, with the wall-clock time under `timing`."""
        return {
            "epoch_losses": self.epoch_losses,
            "epochs_run": self.epochs_run,
            "final_train_accuracy": self.final_train_accuracy,
            "timing": {"wall_time": self.wall_time},
        }


def _log_softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def symmetric_ce_loss(logits: np.ndarray) -> float:
    """Mean of row-wise and column-wise cross entropy with diagonal targets.

    Accumulated in float64; all-equal logits give exactly ln(B), a single
    pair gives 0.
    """
    s = np.asarray(logits, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"logits must be square, got shape {s.shape}")
    b = s.shape[0]
    if b == 0:
        raise ValueError("empty logit matrix")
    diag = np.arange(b)
    row = -_log_softmax_rows(s)[diag, diag].mean()
    col = -_log_softmax_rows(s.T)[diag, diag].mean()
    return float(0.5 * (row + col))


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def backward(
    model: AssocModel,
    batch_a: np.ndarray,
    batch_b: np.ndarray,
    config: TrainConfig,
    negatives: np.ndarray | None = None,
):
    """Loss and analytic parameter gradients for one batch of pairs.

    in_batch mode contrasts each side against the rest of the batch.
    random_sampled mode needs `negatives` of shape (B, M, d); each row is
    scored against its own positive plus the M sampled rows, both directions.
    Returns (gradients, loss).
    """
    xa = np.ascontiguousarray(batch_a, dtype=model.dtype)
    xb = np.ascontiguousarray(batch_b, dtype=model.dtype)
    if xa.shape != xb.shape:
        raise ValueError(f"side shapes differ: {xa.shape} vs {xb.shape}")
    b = xa.shape[0]
    tau = config.temperature

    if config.negative_mode == "in_batch":
        if negatives is not None:
            raise ValueError("in_batch mode takes no negatives")
        stacked = np.concatenate([xa, xb], axis=0)
        z, cache = forward_batch(model, stacked)
        za, zb = z[:b], z[b:]
        s = (za @ zb.T) / tau
        loss = symmetric_ce_loss(s)
        p = _softmax_rows(s)
        q = _softmax_rows(s.T).T
        ds = ((p + q - 2.0 * np.eye(b, dtype=s.dtype)) / (2.0 * b)).astype(model.dtype)
        dza = (ds @ zb) / tau
        dzb = (ds.T @ za) / tau
        df = np.concatenate([dza, dzb], axis=0)
        grads = backward_batch(model, cache, df)
        return grads, loss

    if negatives is None:
        raise ValueError("random_sampled mode requires negatives")
    negs = np.ascontiguousarray(negatives, dtype=model.dtype)
    if negs.ndim != 3 or negs.shape[0] != b or negs.shape[2] != xa.shape[1]:
        raise ValueError(f"negatives shape {negs.shape} does not match batch ({b}, M, d)")
    m = negs.shape[1]
    stacked = np.concatenate([xa, xb, negs.reshape(b * m, -1)], axis=0)
    z, cache = forward_batch(model, stacked)
    za, zb = z[:b], z[b : 2 * b]
    zn = z[2 * b :].reshape(b, m, -1)

    loss_acc = 0.0
    df = np.zeros_like(z)
    dfa, dfb = df[:b], df[b : 2 * b]
    dfn = df[2 * b :].reshape(b, m, -1)
    scale = 1.0 / (2.0 * b)
    for anchor, other, danchor, dother in ((za, zb, dfa, dfb), (zb, za, dfb, dfa)):
        # candidates per row: own positive at slot 0, then the sampled rows
        pos = (anchor * other).sum(axis=1, keepdims=True)
        neg = np.einsum("bd,bmd->bm", anchor, zn)
        logits = np.concatenate([pos, neg], axis=1) / tau
        logits64 = logits.astype(np.float64)
        lse = logits64.max(axis=1) + np.log(
            np.exp(logits64 - logits64.max(axis=1, keepdims=True)).sum(axis=1)
        )
        loss_acc += float((lse - logits64[:, 0]).sum())
        dl = _softmax_rows(logits).astype(model.dtype)
        dl[:, 0] -= 1.0
        dl *= scale / tau
        danchor += dl[:, :1] * other + np.einsum("bm,bmd->bd", dl[:, 1:], zn)
        dother += dl[:, :1] * anchor
        dfn += dl[:, 1:, None] * anchor[:, None, :]
    grads = backward_batch(model, cache, df)
    return grads, loss_acc * scale


class AdamW:
    """Decoupled weight decay Adam over a named parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        self.params = params
        self.beta1 = config.adam_beta1
        self.beta2 = config.adam_beta2
        self.eps = config.adam_eps
        self.weight_decay = config.weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= lr * self.weight_decay * p
            p -= (lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)


def cosine_lr(epoch: int, epochs: int, base_lr: float, min_lr_fraction: float) -> float:
    """Cosine decay from base_lr at epoch 0 to min_lr_fraction*base_lr at the
    final epoch."""
    if not 0 <= epoch < epochs:
        raise ValueError(f"epoch {epoch} out of range for {epochs} epochs")
    if epochs == 1:
        return base_lr
    min_lr = min_lr_fraction * base_lr
    span = np.cos(np.pi * epoch / (epochs - 1))
    return float(min_lr + (base_lr - min_lr) * 0.5 * (1.0 + span))


def _resolve_pairs(pairs: AssocPairSet, embeddings: EmbeddingMatrix):
    rows_a = np.empty(len(pairs.pairs), dtype=np.int64)
    rows_b = np.empty(len(pairs.pairs), dtype=np.int64)
    for i, (a, b) in enumerate(pairs.pairs):
        if a not in embeddings or b not in embeddings:
            missing = a if a not in embeddings else b
            raise PairSetError(f"pair id {missing!r} not present in the embedding matrix")
        rows_a[i] = embeddings.row(a)
        rows_b[i] = embeddings.row(b)
    return rows_a, rows_b


def _sample_negatives(
    rng: np.random.Generator, n_rows: int, exclude_a: np.ndarray, exclude_b: np.ndarray, m: int
) -> np.ndarray:
    if n_rows < 3:
        raise ValueError("random_sampled mode needs at least 3 passages")
    negs = rng.integers(0, n_rows, size=(exclude_a.size, m))
    for _ in range(1000):
        clash = (negs == exclude_a[:, None]) | (negs == exclude_b[:, None])
        if not clash.any():
            return negs
        negs[clash] = rng.integers(0, n_rows, size=int(clash.sum()))
    raise RuntimeError("failed to sample negatives away from the positive pair")


def train(
    model: AssocModel,
    pairs: AssocPairSet,
    embeddings: EmbeddingMatrix,
    config: TrainConfig,
):
    """Train in place over the pair set; returns (model, TrainReport).

    Pair order is reshuffled every epoch from config.seed, so a fixed
    (config, seed, init) triple reproduces the checkpoint bit for bit.
    Trailing batches of size 1 are dropped: a single pair has no in-batch
    contrast.
    """
    config.validate()
    if not pairs.pairs:
        raise PairSetError("empty pair set")
    rows_a, rows_b = _resolve_pairs(pairs, embeddings)
    n = rows_a.size
    if config.batch_size > n:
        raise PairSetError(f"batch_size {config.batch_size} exceeds pair count {n}")
    if config.batch_size < 2:
        raise ValueError("batch_size must be >= 2: a batch of one pair has no in-batch contrast")
    start = time.perf_counter()
    report = TrainReport()
    if config.epochs == 0:
        report.wall_time = time.perf_counter() - start
        return model, report

    rng = np.random.default_rng(config.seed)
    opt = AdamW(dict(model.param_items()), config)
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config.epochs, config.learning_rate, config.min_lr_fraction)
        order = rng.permutation(n)
        loss_sum = 0.0
        seen = 0
        for lo in range(0, n, config.batch_size):
            chunk = order[lo : lo + config.batch_size]
            if chunk.size < 2:
                continue
            xa = embeddings.data[rows_a[chunk]]
            xb = embeddings.data[rows_b[chunk]]
            negatives = None
            if config.negative_mode == "random_sampled":
                negatives = embeddings.data[
                    _sample_negatives(
                        rng, embeddings.rows, rows_a[chunk], rows_b[chunk], config.batch_size - 1
                    )
                ]
            grads, loss = backward(model, xa, xb, config, negatives=negatives)
            opt.step(grads, lr)
            loss_sum += loss * chunk.size
            seen += chunk.size
        report.epoch_losses.append(loss_sum / seen)
        report.epochs_run = epoch + 1
    report.final_train_accuracy = training_accuracy(model, pairs, embeddings, config.batch_size)
    report.wall_time = time.perf_counter() - start
    return model, report


def training_accuracy(
    model: AssocModel,
    pairs: AssocPairSet,
    embeddings: EmbeddingMatrix,
    batch_size: int,
) -> float:
    """Diagonal argmax rate over evaluation batches, rows and columns pooled.

    Batches walk the pair set in order; a trailing batch of size 1 is skipped
    since it carries no contrast.
    """
    rows_a, rows_b = _resolve_pairs(pairs, embeddings)
    hits = 0
    total = 0
    for lo in range(0, rows_a.size, batch_size):
        chunk = slice(lo, min(lo + batch_size, rows_a.size))
        b = chunk.stop - chunk.start
        if b < 2:
            continue
        fa, _ = forward_batch(model, embeddings.data[rows_a[chunk]])
        fb, _ = forward_batch(model, embeddings.data[rows_b[chunk]])
        s = fa @ fb.T
        diag = np.arange(b)
        hits += int((s.argmax(axis=1) == diag).sum())
        hits += int((s.argmax(axis=0) == diag).sum())
        total += 2 * b
    if total == 0:
        raise ValueError("no evaluation batch of size >= 2")
    return hits / total

