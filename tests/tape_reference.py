"""Elementwise tape primitives, and the marginal likelihood and MSE head
composed from them: a test-only reference for the hand-written gradients.

`mvelma` computes the likelihood and the head in plain numpy, each with its
gradients written out by hand. Here the same quantities are built from one
node per elementwise operation, so reverse mode derives their gradients by
the chain rule instead. `test_numcore` checks each primitive against
central differences; `test_gp` and `test_pipeline` check `gp.nmll_node` and
`pipeline.mse_head` against the compositions.
"""

from __future__ import annotations

import math

import numpy as np

from mvelma import numcore as nc
from mvelma.errors import DimensionMismatch

SQRT5 = math.sqrt(5.0)
LOG_2PI = math.log(2.0 * math.pi)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum an adjoint down to the shape of a broadcast operand."""
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _pair(a, b):
    """Both operands as nodes; a plain value becomes a leaf on the other's tape."""
    if isinstance(a, nc.Node):
        if not isinstance(b, nc.Node):
            b = a.tape.leaf(b)
    elif isinstance(b, nc.Node):
        a = b.tape.leaf(a)
    else:
        raise TypeError("at least one operand must be a tape Node")
    return a, b


def _unary(a, out, slope):
    """A node out = f(a) whose adjoint is g * slope."""
    return nc.Node(a.tape, out, (a,), lambda g: (g * slope,))


def add(a, b):
    a, b = _pair(a, b)
    sa, sb = a.value.shape, b.value.shape
    return nc.Node(a.tape, a.value + b.value, (a, b),
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b):
    a, b = _pair(a, b)
    sa, sb = a.value.shape, b.value.shape
    return nc.Node(a.tape, a.value - b.value, (a, b),
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b):
    """Elementwise product with numpy broadcasting."""
    a, b = _pair(a, b)
    av, bv = a.value, b.value
    return nc.Node(a.tape, av * bv, (a, b),
                   lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)))


def div(a, b):
    a, b = _pair(a, b)
    av, bv = a.value, b.value
    return nc.Node(a.tape, av / bv, (a, b), lambda g: (
        _unbroadcast(g / bv, av.shape), _unbroadcast(-g * av / (bv * bv), bv.shape)))


def scale(a, s: float):
    """Multiply by a plain python constant."""
    return nc.Node(a.tape, a.value * s, (a,), lambda g: (g * s,))


def matmul(a, b):
    a, b = _pair(a, b)
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionMismatch(f"matmul {a.value.shape} @ {b.value.shape}")
    av, bv = a.value, b.value
    return nc.Node(a.tape, av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def sigmoid(a):
    out = 0.5 * (1.0 + np.tanh(0.5 * a.value))
    return _unary(a, out, out * (1.0 - out))


def tanh(a):
    out = np.tanh(a.value)
    return _unary(a, out, 1.0 - out * out)


def exp(a):
    out = np.exp(a.value)
    return _unary(a, out, out)


def log(a):
    return _unary(a, np.log(a.value), 1.0 / a.value)


def sin(a):
    return _unary(a, np.sin(a.value), np.cos(a.value))


def power(a, p: float):
    """Elementwise a**p; the derivative is clamped to 0 where it is not finite
    (a == 0 with p < 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = p * np.power(a.value, p - 1.0)
    return _unary(a, np.power(a.value, p), np.where(np.isfinite(d), d, 0.0))


def softmax_rows(a):
    """Softmax along axis 1: each output row is nonnegative and sums to 1."""
    e = np.exp(a.value - a.value.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)
    return nc.Node(a.tape, out, (a,),
                   lambda g: (out * (g - (g * out).sum(axis=1, keepdims=True)),))


def concat_cols(parts):
    bounds = np.cumsum([0] + [p.value.shape[1] for p in parts])
    return nc.Node(parts[0].tape, np.hstack([p.value for p in parts]), parts,
                   lambda g: [g[:, j0:j1] for j0, j1 in zip(bounds[:-1], bounds[1:])])


def slice_cols(a, j0: int, j1: int):
    def vjp(g):
        full = np.zeros_like(a.value)
        full[:, j0:j1] = g
        return (full,)

    return nc.Node(a.tape, a.value[:, j0:j1].copy(), (a,), vjp)


def sum_all(a):
    return nc.Node(a.tape, np.array([[a.value.sum()]]), (a,),
                   lambda g: (np.full_like(a.value, g[0, 0]),))


def sqdist(a, b):
    """Pairwise squared distances between the rows of a and b, clamped at 0,
    with an exactly zero diagonal when a is b."""
    a, b = _pair(a, b)
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[1]:
        raise DimensionMismatch(f"sqdist feature dims differ: {av.shape} vs {bv.shape}")
    raw = (av * av).sum(axis=1, keepdims=True) + (bv * bv).sum(axis=1, keepdims=True).T
    val = np.maximum(raw - 2.0 * (av @ bv.T), 0.0)
    if a is b:
        np.fill_diagonal(val, 0.0)

    def vjp(g):
        row = g.sum(axis=1, keepdims=True)
        col = g.sum(axis=0, keepdims=True).T
        return 2.0 * (row * av - g @ bv), 2.0 * (col * bv - g.T @ av)

    return nc.Node(a.tape, val, (a, b), vjp)


def add_diag(a, s):
    """A + s * I for a square node A and a 1x1 node s."""
    n = a.value.shape[0]
    return nc.Node(a.tape, a.value + s.value[0, 0] * np.eye(n), (a, s),
                   lambda g: (g, np.array([[np.trace(g)]])))


def chol_quad_form(a, b):
    """Scalar b^T A^-1 b; adjoints -g alpha alpha^T and 2 g alpha."""
    a, b = _pair(a, b)
    alpha = nc.solve_spd(nc.cholesky(a.value), b.value)
    return nc.Node(a.tape, b.value.T @ alpha, (a, b),
                   lambda g: (-g[0, 0] * (alpha @ alpha.T), 2.0 * g[0, 0] * alpha))


def chol_logdet(a):
    """Scalar log|A|; adjoint g A^-1."""
    factor = nc.cholesky(a.value)
    return nc.Node(a.tape, np.array([[factor.logdet()]]), (a,),
                   lambda g: (g[0, 0] * nc.solve_spd(factor, np.eye(factor.n)),))


# -- compositions -------------------------------------------------------------


def _matern25_unit(r, inv_ls):
    u = scale(mul(r, inv_ls), SQRT5)
    return mul(add(add(1.0, u), scale(mul(u, u), 1.0 / 3.0)), exp(scale(u, -1.0)))


def _periodic_unit(r, inv_ls, inv_period):
    s = sin(scale(mul(r, inv_period), math.pi))
    return exp(scale(mul(mul(s, s), mul(inv_ls, inv_ls)), -2.0))


def kernel(family: str, h: dict, d2):
    """K(d2) for a family, from a dict of 1x1 log-hyperparameter nodes."""
    outputscale = exp(h["log_outputscale"])
    inv_ls = exp(scale(h["log_lengthscale"], -1.0))
    if family == "rbf":
        return mul(outputscale, exp(scale(mul(d2, mul(inv_ls, inv_ls)), -0.5)))
    r = power(d2, 0.5)
    if family == "matern25":
        return mul(outputscale, _matern25_unit(r, inv_ls))
    inv_period = exp(scale(h["log_period"], -1.0))
    if family == "periodic":
        return mul(outputscale, _periodic_unit(r, inv_ls, inv_period))
    inv_pls = exp(scale(h["log_periodic_lengthscale"], -1.0))
    both = add(_matern25_unit(r, inv_ls), _periodic_unit(r, inv_pls, inv_period))
    return mul(outputscale, both)


def nmll(tape, state, x_node, y):
    """The GP's negative log marginal likelihood from primitives.

    Returns (loss, leaf): a 1 x p leaf holds state.hypers_flat()."""
    leaf = tape.leaf(state.hypers_flat().reshape(1, -1))
    names = state.kernel.hyper_names() + ["log_noise", "mean_const"]
    h = {nm: slice_cols(leaf, i, i + 1) for i, nm in enumerate(names)}
    a = add_diag(kernel(state.kernel.family, h, sqdist(x_node, x_node)), exp(h["log_noise"]))
    resid = sub(nc.as_matrix(y), h["mean_const"])
    half = scale(add(chol_quad_form(a, resid), chol_logdet(a)), 0.5)
    return add(half, 0.5 * resid.value.shape[0] * LOG_2PI), leaf


def mse_head(tape, latent, head, y):
    """mean((z w + b - y)^2) from primitives; returns (loss, leaf) with the
    head [w ; b] in a column leaf."""
    leaf = tape.leaf(head)
    d = latent.value.shape[1]
    w = matmul(np.eye(d + 1)[:d], leaf)
    b = matmul(np.eye(d + 1)[d:], leaf)
    diff = sub(add(matmul(latent, w), b), nc.as_matrix(y))
    return scale(sum_all(mul(diff, diff)), 1.0 / diff.value.shape[0]), leaf
