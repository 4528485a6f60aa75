"""Contrastive training of the association transform.

There is one objective, the symmetric in-batch loss. Both sides of every pair
pass through the transform; a batch of B pairs gives a B x B logit matrix
whose diagonal holds the positives, so each pair's negatives are the other
B - 1 pairs of its batch, and the loss is the mean of the row-wise and
column-wise cross entropies. Gradients are computed analytically (no
autograd); the test suite checks them against central finite differences in
float64 (`tests/gradcheck.py`).

Arithmetic follows the deployment path: parameters and activations in
float32, loss values accumulated in float64.

`TrainConfig` holds the six settings that shape the result; AdamW runs with
beta1 0.9, beta2 0.999 and eps 1e-8, and the cosine schedule ends at 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, backward_batch, forward_batch
from assocrank.pairs import AssocPairSet


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
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # each test is written so that NaN fails it
        for name in ("temperature", "learning_rate"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


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


def _log_softmax_diag(s: np.ndarray) -> np.ndarray:
    """The diagonal of the row-wise log-softmax of the square `s`."""
    shifted = s - s.max(axis=1, keepdims=True)
    diag = np.arange(len(s))
    return shifted[diag, diag] - np.log(np.exp(shifted).sum(axis=1))


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
    row = -_log_softmax_diag(s).mean()
    col = -_log_softmax_diag(s.T).mean()
    return float(0.5 * (row + col))


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def backward(model: AssocModel, batch_a: np.ndarray, batch_b: np.ndarray, config: TrainConfig):
    """Loss and analytic parameter gradients for one batch of pairs, each side
    contrasted against the rest of the batch. Returns (gradients, loss)."""
    xa = np.ascontiguousarray(batch_a, dtype=model.dtype)
    xb = np.ascontiguousarray(batch_b, dtype=model.dtype)
    if xa.shape != xb.shape:
        raise ValueError(f"side shapes differ: {xa.shape} vs {xb.shape}")
    b = xa.shape[0]
    tau = config.temperature
    stacked = np.concatenate([xa, xb], axis=0)
    z, cache = forward_batch(model, stacked)
    za, zb = z[:b], z[b:]
    s = (za @ zb.T) / tau
    loss = symmetric_ce_loss(s)
    # (P + Q - 2I) / 2B, with P and Q the row and column softmaxes
    ds = _softmax_rows(s)
    ds += _softmax_rows(s.T).T
    diag = np.arange(b)
    ds[diag, diag] -= 2.0
    ds /= 2.0 * b
    dza = (ds @ zb) / tau
    dzb = (ds.T @ za) / tau
    df = np.concatenate([dza, dzb], axis=0)
    grads = backward_batch(model, cache, df)
    return grads, loss


class AdamW:
    """Decoupled weight decay Adam over one flat parameter vector, updated in
    place; its moments share the vector's layout."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, config: TrainConfig):
        self.params = params
        self.weight_decay = config.weight_decay
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grad: np.ndarray, lr: float) -> None:
        """One update of `params` by the gradient `grad` of the same shape."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        p, m, v = self.params, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * (grad * grad)
        p -= lr * self.weight_decay * p
        p -= (lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)


def cosine_lr(epoch: int, epochs: int, base_lr: float) -> float:
    """Cosine decay from base_lr at epoch 0 to 0 at the final epoch."""
    if not 0 <= epoch < epochs:
        raise ValueError(f"epoch {epoch} out of range for {epochs} epochs")
    if epochs == 1:
        return base_lr
    span = np.cos(np.pi * epoch / (epochs - 1))
    return float(base_lr * 0.5 * (1.0 + span))


def _resolve_pairs(pairs: AssocPairSet, embeddings: EmbeddingMatrix):
    """The embedding rows of each pair's two ids, as two int64 arrays. Only
    the ids the pairs name are mapped, in one pass over `embeddings.ids`."""
    named = {pid for pair in pairs.pairs for pid in pair}
    row_of = {pid: i for i, pid in enumerate(embeddings.ids) if pid in named}
    if len(row_of) != len(named):
        missing = next(pid for pair in pairs.pairs for pid in pair if pid not in row_of)
        raise PairSetError(f"pair id {missing!r} not present in the embedding matrix")
    n = len(pairs.pairs)
    rows_a = np.fromiter((row_of[a] for a, _ in pairs.pairs), dtype=np.int64, count=n)
    rows_b = np.fromiter((row_of[b] for _, b in pairs.pairs), dtype=np.int64, count=n)
    return rows_a, rows_b


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
    opt = AdamW(model.params, config)
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config.epochs, config.learning_rate)
        order = rng.permutation(n)
        loss_sum = 0.0
        seen = 0
        for lo in range(0, n, config.batch_size):
            chunk = order[lo : lo + config.batch_size]
            if chunk.size < 2:
                continue
            xa = embeddings.data[rows_a[chunk]]
            xb = embeddings.data[rows_b[chunk]]
            grads, loss = backward(model, xa, xb, config)
            opt.step(grads.flat, lr)
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

