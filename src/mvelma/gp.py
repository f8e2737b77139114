"""Exact Gaussian process regression with a constant mean.

Four stationary kernel families over the concatenated latent+site features:
RBF, Matern 2.5 (closed polynomial-exponential form), Periodic, and a
composite outputscale*(matern_unit + periodic_unit). Hyperparameters live in
log space so positivity is structural.

Each family's formula is written once, in `kernel_from_sqdist`, which gives
K from the pairwise squared distances together with its closed-form
derivatives in the squared distance and in each log-hyperparameter.
`kernel_matrix` (posterior, refresh) takes the value, the posterior's prior
variance k(x, x) is that value at distance 0, and `kernel_block` turns the
derivatives into a vector-Jacobian product. The distances within one point
set are symmetric to the last bit, and so is every Gram matrix built from
them. `nmll_node` is the one computation of the negative log marginal
likelihood: on a single Cholesky factor it returns the value together with
its gradient in the hyperparameters and in the training inputs, which is
what lets the encoder train jointly against it. It builds no tape: the
pipeline hands the input gradient to the encoder's reverse pass.
`GPState.refresh(inputs, targets)` is the one way to a factored state, and
`posterior` refuses any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numcore as nc
from . import optim
from .errors import DegenerateInput, DimensionMismatch
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
    The steps run in place, on at most four arrays of r's size.
    """
    u = np.multiply(r, SQRT5, out=np.empty_like(r))
    u /= lengthscale
    e = np.negative(u, out=np.empty_like(u))
    np.exp(e, out=e)
    one_u = np.add(u, 1.0, out=np.empty_like(u))
    unit = np.multiply(u, u, out=np.empty_like(u))
    unit /= 3.0
    unit += one_u
    unit *= e
    if not grad:
        return unit, None, None
    slope = np.multiply(u, one_u, out=one_u)  # -d unit / du; du / d log l = -u
    slope *= e
    slope /= 3.0
    u *= slope
    return unit, np.multiply(slope, -SQRT5 / lengthscale, out=e), [u]


def _periodic(r, lengthscale, period, grad):
    """Periodic correlation exp(-2 sin^2(pi r / p) / l^2).

    With grad, also its derivative in r and in (log l, log p), else None.
    The steps run in place, on at most four arrays of r's size.
    """
    l2 = lengthscale * lengthscale
    phase = np.multiply(r, np.pi, out=np.empty_like(r))
    phase /= period
    s = np.sin(phase, out=np.empty_like(phase))
    unit = np.multiply(s, -2.0, out=np.empty_like(s))
    unit *= s
    unit /= l2
    np.exp(unit, out=unit)
    if not grad:
        return unit, None, None
    d_log_l = np.multiply(s, 4.0 / l2, out=np.empty_like(s))
    d_log_l *= s
    d_log_l *= unit
    # -d unit / d phase, in s's array; d phase / d log p = -phase
    slope = np.multiply(phase, 2.0, out=s)
    np.sin(slope, out=slope)
    slope *= 2.0 / l2
    slope *= unit
    phase *= slope
    return unit, np.multiply(slope, -np.pi / period, out=slope), [d_log_l, phase]


def kernel_from_sqdist(spec: KernelSpec, d2, grad: bool = False, inputs: bool = True):
    """The kernel of `spec` from pairwise squared distances: the one formula
    per family.

    Returns K, or with ``grad`` the triple (K, dK/dd2, [dK/dtheta for theta
    in spec.hyper_names()]), all elementwise over d2; dK/dd2 is None
    without ``inputs``. The Matern and periodic parts depend on r = sqrt(d2).
    Where r = 0, dK/dd2 is taken as exactly 0, which keeps dr/dd2 = 1/(2r)
    from reaching infinity; both parts are smooth and even in r, so the true
    gradient of a coincident pair in its inputs is 0 as well.

    d2 is left as it is, and may be a number. Each elementwise step writes
    into an array that the call owns, in the order the formula is written,
    so the working set is a few arrays of d2's size and no temporaries.
    """
    os_ = math.exp(spec.log_outputscale)
    ls = math.exp(spec.log_lengthscale)
    d2 = np.asarray(d2, dtype=np.float64)
    if spec.family == "rbf":
        k = np.negative(d2, out=np.empty_like(d2))
        k /= 2.0 * ls * ls
        np.exp(k, out=k)
        k *= os_
        if not grad:
            return k
        d_log_l = np.multiply(k, d2, out=np.empty_like(k))
        d_log_l /= ls * ls
        return k, np.multiply(k, -0.5 / (ls * ls)) if inputs else None, [k, d_log_l]
    r = np.sqrt(d2, out=np.empty_like(d2))
    if spec.family == "periodic":
        k, d_r, d_log = _periodic(r, ls, math.exp(spec.log_period), grad)
    else:
        k, d_r, d_log = _matern25(r, ls, grad)
    if spec.family == "composite":
        per, per_r, per_log = _periodic(
            r, math.exp(spec.log_periodic_lengthscale), math.exp(spec.log_period), grad
        )
        k += per
        if grad:
            d_r += per_r
            d_log += per_log[::-1]  # log_period, then log_periodic_lengthscale
    k *= os_  # the unit correlation becomes K
    if not grad:
        return k
    for d in d_log:
        d *= os_
    if not inputs:
        return k, None, [k] + d_log
    d_r *= os_
    d_r *= np.divide(0.5, r, out=np.zeros_like(r), where=r > 0.0)
    return k, d_r, [k] + d_log


def kernel_eval(spec: KernelSpec, a, b) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise DimensionMismatch(f"kernel_eval on vectors of size {a.size} and {b.size}")
    d2 = float(np.sum((a - b) ** 2))
    return float(kernel_from_sqdist(spec, np.array(d2)))


def _sqdist(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared distances between the rows of x and of y.

    Computed as |x|^2 + |y|^2 - 2 x y^T and clamped at 0 so cancellation can
    never produce a negative distance. Without y they are the distances
    within x, with the diagonal exactly 0 rather than rounding dust, and
    exactly symmetric: so are x @ x.T and sq + sq.T.
    """
    sq = (x * x).sum(axis=1, keepdims=True)
    d2 = sq + (sq if y is None else (y * y).sum(axis=1, keepdims=True)).T
    cross = x @ (x if y is None else y).T
    cross *= 2.0
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    if y is None:
        np.fill_diagonal(d2, 0.0)
    return d2


def kernel_matrix(spec: KernelSpec, x, y) -> np.ndarray:
    """Gram matrix between rows of x (N x d) and y (M x d)."""
    x = nc.as_matrix(x)
    y = nc.as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"kernel_matrix feature dims differ: {x.shape} vs {y.shape}")
    gram = x is y or (x.shape == y.shape and np.array_equal(x, y))
    return kernel_from_sqdist(spec, _sqdist(x, None if gram else y))


def kernel_block(spec: KernelSpec, x: np.ndarray, inputs: bool = True):
    """K(x, x) and its vector-Jacobian product.

    ``vjp(G)`` maps an adjoint G of K to the gradient of sum(G * K) over the
    spec's log-hyperparameters (in hyper_names() order) and over x, or to
    (hyperparameter gradient, None) without ``inputs``, which then forms no
    dK/dd2 either. Through d2_ij = |x_i|^2 + |x_j|^2 - 2 x_i.x_j, an adjoint
    W of d2 gives dx = 2 (rowsum(S) x - S x) with S = W + W^T.

    The VJP writes neither into G nor into what it keeps, so every call
    gives the same result. It reads K again as dK/d log(outputscale): a
    caller that changes K in between must restore it.
    """
    k, dk_dd2, dk_dlog = kernel_from_sqdist(spec, _sqdist(x), grad=True, inputs=inputs)

    def vjp(g):
        d_hypers = np.array([np.vdot(g, d) for d in dk_dlog])
        if not inputs:
            return d_hypers, None
        w = g * dk_dd2
        s = w + w.T
        del w  # before the n x d products
        d_x = s.sum(axis=1, keepdims=True) * x
        d_x -= s @ x
        d_x *= 2.0
        return d_hypers, d_x

    return k, vjp


# ---------------------------------------------------------------------------
# Marginal likelihood block
# ---------------------------------------------------------------------------


def nmll_node(state: "GPState", x: np.ndarray, y, n_latent: int = 0):
    """Negative log marginal likelihood and its gradients: the one
    computation of the NMLL.

    0.5*(y-m)^T A^-1 (y-m) + 0.5*log|A| + (n/2)*log(2*pi) with
    A = K(X,X) + noise*I. Returns ``(value, d_hypers, d_latent)``:
    ``d_hypers`` is the gradient in ``state.hypers_flat()`` and ``d_latent``
    the gradient in the first ``n_latent`` columns of x, the latents in
    joint training, whose adjoint seeds the encoder's reverse pass. With
    ``n_latent`` 0 it is None, and no input gradient is formed.

    One Cholesky factor A = L L^T serves both terms, and alpha = A^-1 (y-m)
    and A^-1 = L^-T L^-1 both come from the inverse it carries. The adjoint
    of A is (A^-1 - alpha alpha^T)/2 (Rasmussen & Williams 2006, eq. 5.9);
    the kernel block contracts it with its closed-form derivatives.

    The working set is K, its derivatives and a few n x n arrays more: A is
    formed on the diagonal of K's own array, which is put back once A is
    factored, and the factor and L^-1 are dropped as soon as alpha, log|A|
    and A^-1 are formed.
    """
    resid = nc.as_matrix(y) - state.mean_const
    n = resid.shape[0]
    if x.shape[0] != n:
        raise DimensionMismatch(f"{x.shape[0]} inputs vs {n} targets")
    k, kernel_vjp = kernel_block(state.kernel, x, inputs=n_latent > 0)
    noise = math.exp(state.log_noise)
    # K's diagonal goes back once A is factored: the kernel block reads K
    # again as dK/d log(outputscale)
    diagonal = k.diagonal().copy()
    k.flat[::n + 1] += noise
    factor = nc.cholesky(k)
    k.flat[::n + 1] = diagonal
    l_inv = factor.inverse
    w = l_inv @ resid  # L^-1 (y - m)
    alpha = l_inv.T @ w
    value = 0.5 * (w.T @ w).item() + 0.5 * factor.logdet() + 0.5 * n * LOG_2PI
    del factor  # L^-1 alone forms the adjoint, and is released before its rank-one term
    adj = l_inv.T @ l_inv
    del l_inv
    adj -= alpha @ alpha.T
    adj *= 0.5
    d_kernel, d_x = kernel_vjp(adj)
    d_hypers = np.concatenate([d_kernel, [noise * np.trace(adj), -alpha.sum()]])
    # all columns in one product: s @ x[:, :n_latent] takes another BLAS
    # kernel at some shapes, and rounds differently
    return value, d_hypers, None if d_x is None else d_x[:, :n_latent]


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

    def refresh(self, inputs, targets) -> "GPState":
        """The state on these training points, with the Cholesky factor and
        alpha for its hyperparameters: the only way to a factored state."""
        x = nc.as_matrix(inputs)
        y = np.asarray(targets, float).ravel()
        if x.shape[0] != y.size:
            raise DimensionMismatch(f"{x.shape[0]} inputs vs {y.size} targets")
        k = kernel_matrix(self.kernel, x, x)
        chol = nc.cholesky(nc.plus_diagonal(k, math.exp(self.log_noise)))
        alpha = nc.solve_spd(chol, (y - self.mean_const).reshape(-1, 1))
        return replace(self, train_inputs=x, train_targets=y, chol=chol, alpha=alpha)


def init_state(inputs, targets, family: str = "matern25") -> GPState:
    """Heuristic starting point: median-distance lengthscale, variance-scaled
    outputscale and noise, mean at the target mean. Degenerate statistics
    (single point, constant targets) fall back to safe floors."""
    x = nc.as_matrix(inputs)
    y = np.asarray(targets, dtype=np.float64).ravel()
    nc.require_finite(x, "GP init inputs")
    nc.require_finite(y, "GP init targets")
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


def fit(
    state: GPState, inputs, targets, opt: OptimizerConfig | None = None
) -> tuple[GPState, list]:
    """Tune hyperparameters on the marginal likelihood with
    optim.adam_descent, which early-stops and restores the best state; the
    returned trace ends with that state's loss, so trace[-1] <= trace[0]."""
    opt = opt or OptimizerConfig()
    x = nc.as_matrix(inputs)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if x.shape[0] < 2:
        raise DegenerateInput("GP fit needs at least 2 training points")
    nc.require_finite(x, "GP fit inputs")
    nc.require_finite(y, "GP fit targets")

    def step(hypers):
        value, d_hypers, _ = nmll_node(state.with_hypers_flat(hypers), x, y)
        return value, d_hypers

    best, trace = optim.adam_descent(step, state.hypers_flat(), opt)
    return state.with_hypers_flat(best).refresh(x, y), trace


@dataclass
class GPPosterior:
    mean: np.ndarray
    variance: np.ndarray


def posterior(state: GPState, test) -> GPPosterior:
    """Predictive mean and (noise-free) variance at the test rows.

    mean = m + K_*^T alpha; variance = k(x,x) - colsum((L^-1 K_*)^2),
    clamped at zero against rounding (Rasmussen & Williams 2006, Alg. 2.1).
    The state must come from GPState.refresh.
    """
    if state.chol is None or state.alpha is None:
        raise DegenerateInput("GP state is not factored: call GPState.refresh(inputs, targets)")
    test = nc.as_matrix(test)
    if test.shape[1] != state.train_inputs.shape[1]:
        raise DimensionMismatch(
            f"test dim {test.shape[1]} != train dim {state.train_inputs.shape[1]}"
        )
    k_star = kernel_matrix(state.kernel, state.train_inputs, test)  # N x M
    mean = state.mean_const + (k_star.T @ state.alpha).ravel()
    w = state.chol.inverse @ k_star  # L^-1 K_*
    prior = kernel_from_sqdist(state.kernel, 0.0)  # k(x, x)
    variance = np.maximum(prior - np.einsum("ij,ij->j", w, w), 0.0)
    return GPPosterior(mean=mean, variance=variance)
