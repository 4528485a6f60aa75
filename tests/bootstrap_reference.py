"""The sequential bootstrap loop, one block of index draws then its means,
kept as the reference that `evaluation.paired_bootstrap_ci` must equal."""

import numpy as np


def sequential_bootstrap_ci(deltas, resamples: int = 10000, seed: int = 0):
    """Percentile bootstrap CIs (2.5th / 97.5th) for mean paired deltas: a
    list of one (low, high) pair per row of (rows, n) deltas, every row
    resampled with the same index draws."""
    rows = np.asarray(deltas, dtype=np.float64)
    rng = np.random.default_rng(seed)
    means = np.empty((len(rows), resamples), dtype=np.float64)
    block = 1000
    for lo in range(0, resamples, block):
        hi = min(lo + block, resamples)
        idx = rng.integers(0, rows.shape[1], size=(hi - lo, rows.shape[1]))
        for row, out in zip(rows, means):
            out[lo:hi] = row[idx].mean(axis=1)
    return [(float(np.percentile(m, 2.5)), float(np.percentile(m, 97.5))) for m in means]
