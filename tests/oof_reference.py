"""The per-fold refit that `mvelma.pipeline._oof_means` must reproduce.

`reference_oof_means` holds out each fold of the seeded permutation in turn,
factors the GP again on the other rows with the hyperparameters held fixed,
and takes the posterior mean at the held-out rows. It makes one kernel
matrix, Cholesky factor and posterior per fold, and refits for a fold that
holds no row as well. The closed form on the full factor must agree with it
to rounding, for any number of folds.
"""

import numpy as np

from mvelma import gp


def reference_oof_means(state: gp.GPState, x: np.ndarray, y: np.ndarray, folds: int, seed: int):
    """Out-of-fold posterior means with hyperparameters held fixed."""
    n = x.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    mu = np.empty(n)
    for f in range(folds):
        hold = order[f::folds]
        keep = np.setdiff1d(order, hold)
        st = state.refresh(x[keep], y[keep])
        mu[hold] = gp.posterior(st, x[hold]).mean
    return mu
