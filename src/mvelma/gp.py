"""Exact Gaussian process regression with a constant mean.

Four stationary kernel families over the concatenated latent+site features:
RBF, Matern 2.5 (closed polynomial-exponential form), Periodic, and a
composite outputscale*(matern_unit + periodic_unit). Hyperparameters live in
log space so positivity is structural.

Each family's formula is written once, in `kernel_from_sqdist`, which gives
K from the pairwise squared distances together with its closed-form
derivatives in the squared distance and in each log-hyperparameter.
`kernel_matrix` (posterior, refresh) takes the value; `kernel_block` turns
the derivatives into a vector-Jacobian product. `nmll_node` is the negative
log marginal likelihood as one fused tape block on a single Cholesky
factor; its gradient reaches both the hyperparameters and the training
inputs, which is what lets the encoder train jointly against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numcore as nc
from . import optim
from .errors import DegenerateInput, DimensionMismatch, NonFiniteInput
from .optim import OptimizerConfig

FAMILIES = ("rbf", "matern25", "periodic", "composite")
SQRT5 = math.sqrt(5.0)
LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class KernelSpec:
    """Kernel family plus log-space hyperparameters.

    log_period and log_periodic_lengthscale only participate for the
    periodic and composite families; the composite keeps separate
    lengthscales for its Matern and periodic parts under one outputscale.
    """

    family: str = "matern25"
    log_outputscale: float = 0.0
    log_lengthscale: float = 0.0
    log_period: float = 0.0
    log_periodic_lengthscale: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DimensionMismatch(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )

    def hyper_names(self) -> list:
        """Active hyperparameter field names, in flat-vector order."""
        names = ["log_outputscale", "log_lengthscale"]
        if self.family == "periodic":
            names.append("log_period")
        elif self.family == "composite":
            names += ["log_period", "log_periodic_lengthscale"]
        return names


def _matern25(r, lengthscale, grad):
    """Matern 2.5 correlation (1 + u + u^2/3) exp(-u), u = sqrt(5) r / l.

    With grad, also its derivative in r and in log l, else None for both.
    """
    u = SQRT5 * r / lengthscale
    e = np.exp(-u)
    unit = (1.0 + u + u * u / 3.0) * e
    if not grad:
        return unit, None, None
    slope = u * (1.0 + u) * e / 3.0  # -d unit / du; du / d log l = -u
    return unit, slope * (-SQRT5 / lengthscale), [u * slope]


def _periodic(r, lengthscale, period, grad):
    """Periodic correlation exp(-2 sin^2(pi r / p) / l^2).

    With grad, also its derivative in r and in (log l, log p), else None.
    """
    phase = np.pi * r / period
    s = np.sin(phase)
    unit = np.exp(-2.0 * s * s / (lengthscale * lengthscale))
    if not grad:
        return unit, None, None
    # -d unit / d phase; d phase / d log p = -phase
    slope = (2.0 / (lengthscale * lengthscale)) * np.sin(2.0 * phase) * unit
    d_log_l = (4.0 / (lengthscale * lengthscale)) * s * s * unit
    return unit, slope * (-np.pi / period), [d_log_l, slope * phase]


def kernel_from_sqdist(spec: KernelSpec, d2: np.ndarray, grad: bool = False):
    """The kernel of `spec` from pairwise squared distances: the one formula
    per family.

    Returns K, or with ``grad`` the triple (K, dK/dd2, [dK/dtheta for theta
    in spec.hyper_names()]), all elementwise over d2. The Matern and periodic
    parts depend on r = sqrt(d2). Where r = 0, dK/dd2 is taken as exactly 0,
    which keeps dr/dd2 = 1/(2r) from reaching infinity; both parts are
    smooth and even in r, so the true gradient of a coincident pair in its
    inputs is 0 as well.
    """
    os_ = math.exp(spec.log_outputscale)
    ls = math.exp(spec.log_lengthscale)
    if spec.family == "rbf":
        k = os_ * np.exp(-d2 / (2.0 * ls * ls))
        return (k, k * (-0.5 / (ls * ls)), [k, k * d2 / (ls * ls)]) if grad else k
    r = np.sqrt(d2)
    if spec.family == "matern25":
        unit, d_r, d_log = _matern25(r, ls, grad)
    elif spec.family == "periodic":
        unit, d_r, d_log = _periodic(r, ls, math.exp(spec.log_period), grad)
    else:
        per, per_r, per_log = _periodic(
            r, math.exp(spec.log_periodic_lengthscale), math.exp(spec.log_period), grad
        )
        unit, d_r, d_log = _matern25(r, ls, grad)
        unit = unit + per
        if grad:
            d_r = d_r + per_r
            d_log = d_log + per_log[::-1]  # log_period, then log_periodic_lengthscale
    k = os_ * unit
    if not grad:
        return k
    half_inv_r = np.divide(0.5, r, out=np.zeros_like(r), where=r > 0.0)
    return k, (os_ * d_r) * half_inv_r, [k] + [os_ * d for d in d_log]


def kernel_value_at_zero(spec: KernelSpec) -> float:
    """Prior variance k(x, x); 2*outputscale for the composite, outputscale otherwise."""
    os_ = math.exp(spec.log_outputscale)
    return 2.0 * os_ if spec.family == "composite" else os_


def kernel_eval(spec: KernelSpec, a, b) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise DimensionMismatch(f"kernel_eval on vectors of size {a.size} and {b.size}")
    d2 = float(np.sum((a - b) ** 2))
    return float(kernel_from_sqdist(spec, np.array(d2)))


def _as_points(x) -> np.ndarray:
    """N x d float64 point set; a 1-D array is N points in one dimension."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x.reshape(-1, 1)
    if x.ndim != 2:
        raise DimensionMismatch(f"point set must be 2-D, got shape {x.shape}")
    return x


def _sqdist(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared distances between the rows of x and of y.

    Computed as |x|^2 + |y|^2 - 2 x y^T and clamped at 0 so cancellation can
    never produce a negative distance. Without y they are the distances
    within x, with the diagonal exactly 0 rather than rounding dust.
    """
    sq = (x * x).sum(axis=1, keepdims=True)
    if y is None:
        d2 = sq + sq.T - 2.0 * (x @ x.T)
    else:
        d2 = sq + (y * y).sum(axis=1, keepdims=True).T - 2.0 * (x @ y.T)
    np.maximum(d2, 0.0, out=d2)
    if y is None:
        np.fill_diagonal(d2, 0.0)
    return d2


def kernel_matrix(spec: KernelSpec, x, y) -> np.ndarray:
    """Gram matrix between rows of x (N x d) and y (M x d)."""
    x = _as_points(x)
    y = _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"kernel_matrix feature dims differ: {x.shape} vs {y.shape}")
    gram = x is y or (x.shape == y.shape and np.array_equal(x, y))
    k = kernel_from_sqdist(spec, _sqdist(x, None if gram else y))
    if gram:
        k = 0.5 * (k + k.T)  # exact symmetry against matmul rounding
    return k


def kernel_block(spec: KernelSpec, x: np.ndarray):
    """K(x, x) and its vector-Jacobian product.

    ``vjp(G)`` maps an adjoint G of K to the gradient of sum(G * K) over the
    spec's log-hyperparameters (in hyper_names() order) and over x. Through
    d2_ij = |x_i|^2 + |x_j|^2 - 2 x_i.x_j, an adjoint W of d2 gives
    dx = 2 (rowsum(S) x - S x) with S = W + W^T.
    """
    k, dk_dd2, dk_dlog = kernel_from_sqdist(spec, _sqdist(x), grad=True)

    def vjp(g):
        w = g * dk_dd2
        s = w + w.T
        d_x = 2.0 * (s.sum(axis=1, keepdims=True) * x - s @ x)
        return np.array([np.vdot(g, d) for d in dk_dlog]), d_x

    return k, vjp


# ---------------------------------------------------------------------------
# Marginal likelihood block
# ---------------------------------------------------------------------------


def nmll_node(tape: nc.Tape, state: "GPState", latent, y, fixed=None):
    """Negative log marginal likelihood as one fused tape block.

    0.5*(y-m)^T A^-1 (y-m) + 0.5*log|A| + (n/2)*log(2*pi) with
    A = K(X,X) + noise*I, where X is the latent node's value followed by the
    ``fixed`` columns (either may be None; fixed columns carry no gradient).

    Registers one leaf holding ``state.hypers_flat()`` and returns
    ``(loss, leaf)``. The loss node's parents are that leaf and the latent
    node, so backward() leaves the hyperparameter gradient in the leaf and
    hands dL/dX on to the latents (the encoder block in joint training).

    One Cholesky factor A = L L^T serves both terms, and alpha = A^-1 (y-m)
    and A^-1 = L^-T L^-1 both come from its triangular inverse. The adjoint
    of A is (A^-1 - alpha alpha^T)/2 (Rasmussen & Williams 2006, eq. 5.9);
    the kernel block contracts it with its closed-form derivatives. All of
    this stays on numpy's BLAS: interleaving it with scipy's separately
    bundled BLAS (cho_solve, dpotri) in the training loop leaves two thread
    pools contending for the cores.
    """
    hypers = tape.leaf(state.hypers_flat())
    if latent is None:
        parents, n_latent, x = (hypers,), 0, fixed
    else:
        parents, n_latent = (hypers, latent), latent.value.shape[1]
        x = latent.value if fixed is None else np.hstack([latent.value, fixed])
    resid = nc.as_matrix(y) - state.mean_const
    n = resid.shape[0]
    if x.shape[0] != n:
        raise DimensionMismatch(f"{x.shape[0]} inputs vs {n} targets")
    k, kernel_vjp = kernel_block(state.kernel, x)
    noise = math.exp(state.log_noise)
    factor = nc.cholesky(k + noise * np.eye(n))
    l_inv = nc.lower_inverse(factor.lower)
    w = l_inv @ resid  # L^-1 (y - m)
    alpha = l_inv.T @ w
    value = 0.5 * (w.T @ w).item() + 0.5 * factor.logdet() + 0.5 * n * LOG_2PI

    def vjp(g):
        adj = l_inv.T @ l_inv
        adj -= alpha @ alpha.T
        adj *= 0.5 * g[0, 0]
        d_kernel, d_x = kernel_vjp(adj)
        d_hypers = np.concatenate(
            [d_kernel, [noise * np.trace(adj), -g[0, 0] * alpha.sum()]]
        )
        return d_hypers.reshape(-1, 1), d_x[:, :n_latent]

    return nc.Node(tape, np.array([[value]]), parents, vjp), hypers


# ---------------------------------------------------------------------------
# GP state, fitting, posterior
# ---------------------------------------------------------------------------


@dataclass
class GPState:
    kernel: KernelSpec
    log_noise: float
    mean_const: float
    train_inputs: np.ndarray = field(default_factory=lambda: np.zeros((0, 1)))
    train_targets: np.ndarray = field(default_factory=lambda: np.zeros(0))
    chol: nc.CholeskyFactor | None = None
    alpha: np.ndarray | None = None

    def hyper_names(self) -> list:
        return self.kernel.hyper_names() + ["log_noise", "mean_const"]

    def hypers_flat(self) -> np.ndarray:
        vals = [getattr(self.kernel, nm) for nm in self.kernel.hyper_names()]
        return np.array(vals + [self.log_noise, self.mean_const])

    def with_hypers_flat(self, flat: np.ndarray) -> "GPState":
        names = self.kernel.hyper_names()
        kernel = replace(self.kernel, **{nm: float(flat[i]) for i, nm in enumerate(names)})
        return replace(
            self,
            kernel=kernel,
            log_noise=float(flat[len(names)]),
            mean_const=float(flat[len(names) + 1]),
            chol=None,
            alpha=None,
        )

    def refresh(self, inputs=None, targets=None) -> "GPState":
        """Recompute the Cholesky factor and alpha for the current hyperparameters."""
        x = self.train_inputs if inputs is None else _as_points(inputs)
        y = self.train_targets if targets is None else np.asarray(targets, float).ravel()
        if x.shape[0] != y.size:
            raise DimensionMismatch(f"{x.shape[0]} inputs vs {y.size} targets")
        k = kernel_matrix(self.kernel, x, x)
        a = k + math.exp(self.log_noise) * np.eye(x.shape[0])
        chol = nc.cholesky(a)
        alpha = nc.solve_spd(chol, (y - self.mean_const).reshape(-1, 1))
        return replace(self, train_inputs=x, train_targets=y, chol=chol, alpha=alpha)


def init_state(inputs, targets, family: str = "matern25") -> GPState:
    """Heuristic starting point: median-distance lengthscale, variance-scaled
    outputscale and noise, mean at the target mean. Degenerate statistics
    (single point, constant targets) fall back to safe floors."""
    x = _as_points(inputs)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NonFiniteInput("GP init saw NaN or Inf")
    if x.shape[0] != y.size:
        raise DimensionMismatch(f"{x.shape[0]} inputs vs {y.size} targets")

    if x.shape[0] > 1:
        d2 = _sqdist(x)
        iu = np.triu_indices(x.shape[0], k=1)
        med = float(np.median(np.sqrt(d2[iu])))
    else:
        med = 1.0
    lengthscale = max(med, 1e-3)
    var_y = float(np.var(y)) if y.size else 1.0
    var_y = max(var_y, 1e-8)

    # The composite's periodic part is only conditionally PSD over a
    # Euclidean norm; its worst eigenvalue dip scales like N/lengthscale^2,
    # so start that lengthscale above sqrt(80 N) to keep K + noise I
    # factorable. The optimizer is free to move it afterwards.
    periodic_ls = max(lengthscale, math.sqrt(80.0 * max(x.shape[0], 2)))
    kernel = KernelSpec(
        family=family,
        log_outputscale=math.log(var_y),
        log_lengthscale=math.log(lengthscale),
        log_period=0.0,
        log_periodic_lengthscale=math.log(periodic_ls),
    )
    return GPState(
        kernel=kernel,
        log_noise=math.log(0.1 * var_y),
        mean_const=float(np.mean(y)) if y.size else 0.0,
    )


def nmll(state: GPState, inputs=None, targets=None) -> float:
    """Plain-number marginal likelihood for traces and tests."""
    st = state.refresh(inputs, targets)
    y = st.train_targets
    resid = (y - st.mean_const).reshape(-1, 1)
    quad = (resid.T @ st.alpha).item()
    return 0.5 * quad + 0.5 * st.chol.logdet() + 0.5 * y.size * LOG_2PI


def fit(
    state: GPState, inputs, targets, opt: OptimizerConfig | None = None
) -> tuple[GPState, list]:
    """Tune hyperparameters on the marginal likelihood with
    optim.adam_descent, which early-stops and restores the best state; the
    returned trace ends with that state's loss, so trace[-1] <= trace[0]."""
    opt = opt or OptimizerConfig()
    x = _as_points(inputs)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if x.shape[0] < 2:
        raise DegenerateInput("GP fit needs at least 2 training points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NonFiniteInput("GP fit saw NaN or Inf")

    st = replace(state, train_inputs=x, train_targets=y)

    def step(hypers):
        tape = nc.Tape()
        loss, leaf = nmll_node(tape, st.with_hypers_flat(hypers), None, y, fixed=x)
        nc.backward(tape, loss)
        return loss.value.item(), leaf.grad.ravel()

    best, trace = optim.adam_descent(step, st.hypers_flat(), opt)
    return st.with_hypers_flat(best).refresh(), trace


@dataclass
class GPPosterior:
    mean: np.ndarray
    variance: np.ndarray


def posterior(state: GPState, test) -> GPPosterior:
    """Predictive mean and (noise-free) variance at the test rows.

    mean = m + K_*^T alpha; variance = k(x,x) - diag(K_*^T A^-1 K_*),
    clamped at zero against rounding.
    """
    if state.chol is None or state.alpha is None:
        state = state.refresh()
    test = _as_points(test)
    if test.shape[1] != state.train_inputs.shape[1]:
        raise DimensionMismatch(
            f"test dim {test.shape[1]} != train dim {state.train_inputs.shape[1]}"
        )
    k_star = kernel_matrix(state.kernel, state.train_inputs, test)  # N x M
    mean = state.mean_const + (k_star.T @ state.alpha).ravel()
    v = nc.solve_spd(state.chol, k_star)  # A^-1 K_*
    prior = kernel_value_at_zero(state.kernel)
    variance = np.maximum(prior - np.einsum("ij,ij->j", k_star, v), 0.0)
    return GPPosterior(mean=mean, variance=variance)
