"""Central finite-difference check of the analytic gradients of
`training.backward`, shared by the acceptance gate and the trainer tests."""

import numpy as np

from assocrank.model import AssocModel
from assocrank.training import TrainConfig, backward


def gradient_check(
    model: AssocModel,
    batch_a: np.ndarray,
    batch_b: np.ndarray,
    config: TrainConfig,
    step: float = 1e-5,
) -> dict[str, float]:
    """Central finite-difference check of `backward` in float64.

    Returns the worst relative error per parameter tensor, with the
    difference normalized by max(|analytic| + |numeric|, 1e-6) elementwise.
    """
    model64 = model.astype(np.float64)
    xa = np.asarray(batch_a, dtype=np.float64)
    xb = np.asarray(batch_b, dtype=np.float64)
    grads, _ = backward(model64, xa, xb, config)

    def loss_at() -> float:
        _, loss = backward(model64, xa, xb, config)
        return loss

    worst: dict[str, float] = {}
    for name, arr in model64.param_items():
        analytic = grads[name]
        err = 0.0
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            up = loss_at()
            flat[idx] = keep - step
            down = loss_at()
            flat[idx] = keep
            numeric = (up - down) / (2.0 * step)
            ga = float(analytic.reshape(-1)[idx])
            denom = max(abs(ga) + abs(numeric), 1e-6)
            err = max(err, abs(ga - numeric) / denom)
        worst[name] = err
    return worst
