"""Adam over flat float64 parameter vectors, and the training loop around it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, Divergence, NonFiniteInput


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.1
    max_epochs: int = 80
    patience: int = 10
    min_delta: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise DegenerateInput("learning_rate must be finite and > 0")
        if self.max_epochs < 1:
            raise DegenerateInput("max_epochs must be >= 1")
        if self.patience < 1:
            raise DegenerateInput("patience must be >= 1")
        # Adam divides by 1 - beta^t and by sqrt(vhat) + eps
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise DegenerateInput("beta1 and beta2 must be in [0, 1)")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise DegenerateInput("eps must be finite and > 0")
        if not (self.min_delta >= 0 and math.isfinite(self.min_delta)):
            raise DegenerateInput("min_delta must be finite and >= 0")


class Adam:
    """Standard Adam with bias-corrected first and second moments."""

    def __init__(self, size: int, config: OptimizerConfig | None = None):
        self.config = config or OptimizerConfig()
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return updated parameters; does not mutate the input array."""
        c = self.config
        self.t += 1
        self.m = c.beta1 * self.m + (1.0 - c.beta1) * grad
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * grad * grad
        mhat = self.m / (1.0 - c.beta1**self.t)
        vhat = self.v / (1.0 - c.beta2**self.t)
        return params - c.learning_rate * mhat / (np.sqrt(vhat) + c.eps)


def adam_descent(step_fn, x0, opt: OptimizerConfig):
    """Adam with patience early stopping and best-restore: the one training
    loop, shared by the GP hyperparameter fit and both encoder phases.

    ``step_fn(vec)`` returns ``(loss, grad)``. Training stops once
    ``opt.patience`` epochs pass without improving the best loss by
    ``opt.min_delta``, or after ``opt.max_epochs``. Returns the best
    parameters and the per-epoch losses; the trace ends with the restored
    best loss, so trace[-1] <= trace[0] always. Non-finite parameters or
    losses, and a NonFiniteInput or OverflowError raised by ``step_fn``,
    end in Divergence.
    """
    vec = np.asarray(x0, dtype=np.float64).copy()
    adam = Adam(vec.size, opt)
    best = (np.inf, vec.copy())
    trace, stale = [], 0
    for _ in range(opt.max_epochs):
        if not np.all(np.isfinite(vec)):
            raise Divergence("parameters became non-finite during fitting")
        try:
            loss, grad = step_fn(vec)
        except (NonFiniteInput, OverflowError) as e:
            raise Divergence(f"training loss overflowed: {e}") from e
        if not math.isfinite(loss):
            raise Divergence(f"training loss became non-finite ({loss})")
        trace.append(loss)
        if loss < best[0] - opt.min_delta:
            best = (loss, vec.copy())
            stale = 0
        elif loss < best[0]:
            best = (loss, vec.copy())
            stale += 1
        else:
            stale += 1
        if stale >= opt.patience:
            break
        vec = adam.step(vec, grad)
    if trace[-1] != best[0]:
        trace.append(best[0])
    return best[1], trace
