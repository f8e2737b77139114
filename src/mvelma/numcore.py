"""Dense float64 linear algebra and a tape-based reverse-mode differentiation engine.

Everything here works on 2-D ``numpy.float64`` arrays ("matrices"); scalars are
1x1 matrices and vectors are columns. The tape is rebuilt per forward pass
(dynamic graph): appending nodes in creation order keeps the node list
topologically sorted, so the reverse sweep is a single reversed iteration.

Factorizations are delegated to LAPACK via numpy/scipy; the differentiation
rules, including the quadratic-form, log-determinant and fused Gaussian
likelihood nodes used by the Gaussian process marginal likelihood, are
implemented here.
"""

from __future__ import annotations

import ctypes
import sys
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import DimensionMismatch, NonScalarOutput, NotPositiveDefinite

# Diagonal jitter ladder tried before giving up on a factorization.
JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> None:
    """Keep freed blocks in the heap for reuse instead of returning them.

    A tape is freed as soon as its training step returns, so every epoch frees
    its whole working set. By default glibc gives blocks above a moving
    threshold back to the kernel, and the next epoch faults them in again:
    one criterion-7 `full` training took 665k page faults this way, against
    17k with these settings. Blocks under 32 MiB come from the heap, and up to
    1 GiB of free heap is kept. Other C libraries are left as they are.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_retain_freed_heap()


def as_matrix(x) -> np.ndarray:
    """Coerce scalars / 1-D vectors / 2-D arrays to a float64 matrix.

    Scalars become 1x1, 1-D arrays become column vectors.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected at most 2 dimensions, got {arr.ndim}")
    return arr


def require_finite(arr: np.ndarray, what: str = "input") -> np.ndarray:
    from .errors import NonFiniteInput

    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{what} contains NaN or Inf")
    return arr


# ---------------------------------------------------------------------------
# Cholesky factorization and SPD solves
# ---------------------------------------------------------------------------


@dataclass
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix.

    ``jitter`` records the diagonal boost (possibly 0) that made the
    factorization succeed.
    """

    lower: np.ndarray
    n: int
    jitter: float = 0.0

    def logdet(self) -> float:
        """log|A| of the factored matrix, 2 * sum(log(diag(L)))."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))


def cholesky(m, jitters=JITTER_LADDER) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix, escalating diagonal jitter.

    Raises NotPositiveDefinite when the whole jitter ladder fails, and
    DimensionMismatch for non-square or asymmetric input.
    """
    m = require_finite(as_matrix(m), "cholesky input")
    n, ncols = m.shape
    if n != ncols:
        raise DimensionMismatch(f"cholesky needs a square matrix, got {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise DimensionMismatch("cholesky input is not symmetric within 1e-10")
    eye = np.eye(n)
    for jit in jitters:
        try:
            lower = np.linalg.cholesky(m + jit * eye if jit else m)
        except np.linalg.LinAlgError:
            continue
        return CholeskyFactor(lower=lower, n=n, jitter=jit)
    raise NotPositiveDefinite(
        f"matrix of size {n} is not positive definite (max jitter {jitters[-1]:g})"
    )


def solve_spd(f: CholeskyFactor, b) -> np.ndarray:
    """Solve A x = b given the Cholesky factor of A. b is n x k (or a vector)."""
    b = as_matrix(b)
    if b.shape[0] != f.n:
        raise DimensionMismatch(f"rhs has {b.shape[0]} rows, factor is {f.n}x{f.n}")
    return cho_solve((f.lower, True), b)


# ---------------------------------------------------------------------------
# Reverse-mode tape
# ---------------------------------------------------------------------------


class Node:
    """A value on the tape plus the closure that propagates its adjoint.

    A node refers to its tape weakly: the tape lists its nodes, and a strong
    reference back would make every tape a reference cycle that only the
    cyclic garbage collector frees. A tape is freed once the caller drops it.
    """

    __slots__ = ("_tape", "value", "parents", "adjoint", "_push")

    def __init__(self, tape: "Tape", value: np.ndarray, parents=(), push=None):
        self._tape = tape._ref
        self.value = value
        self.parents = parents
        self.adjoint = None
        self._push = push
        tape.nodes.append(self)

    @property
    def tape(self) -> "Tape":
        tape = self._tape()
        if tape is None:
            raise ReferenceError("the node's tape has been freed")
        return tape

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        """Adjoint after backward(); zeros when the node is unreachable."""
        if self.adjoint is None:
            return np.zeros_like(self.value)
        return self.adjoint

    # arithmetic sugar; non-Node operands become constants on the same tape
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(self.tape.constant(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


class Tape:
    """Ordered list of nodes; creation order is the topological order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._ref = weakref.ref(self)

    def constant(self, value) -> Node:
        """Leaf node. Adjoints accumulate here too, so inputs get gradients."""
        return Node(self, require_finite(as_matrix(value), "tape leaf"))

    # parameters and inputs are mechanically identical leaves
    leaf = constant

    def backward(self, output: Node) -> None:
        """Reverse sweep seeding d(output)/d(output) = 1. Output must be 1x1."""
        if output.value.size != 1:
            raise NonScalarOutput(
                f"backward needs a scalar output node, got shape {output.shape}"
            )
        for node in self.nodes:
            node.adjoint = None
        output.adjoint = np.ones((1, 1))
        for node in reversed(self.nodes):
            if node.adjoint is not None and node._push is not None:
                node._push(node.adjoint)


def backward(tape: Tape, output: Node) -> None:
    """Run the reverse pass; afterwards every leaf's .grad is d(output)/d(leaf)."""
    tape.backward(output)


def custom(tape: Tape, value: np.ndarray, parents, vjp) -> Node:
    """Register a fused block as one node.

    ``vjp(g)`` maps the block's adjoint to one adjoint per parent, in
    ``parents`` order; blocks with hand-written reverse passes (the encoder)
    use this instead of unrolling into primitives.
    """
    parents = tuple(parents)

    def push(g):
        for p, adj in zip(parents, vjp(g)):
            _accumulate(p, adj)

    return Node(tape, value, parents, push)


def _accumulate(node: Node, g: np.ndarray) -> None:
    if node.adjoint is None:
        # a private copy: later contributions add into it in place
        node.adjoint = np.array(np.broadcast_to(g, node.value.shape), dtype=np.float64)
    else:
        node.adjoint += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum an adjoint down to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _pair(a, b):
    if isinstance(a, Node):
        if not isinstance(b, Node):
            b = a.tape.constant(b)
    elif isinstance(b, Node):
        a = b.tape.constant(a)
    else:
        raise TypeError("at least one operand must be a tape Node")
    if a._tape is not b._tape:
        raise DimensionMismatch("operands live on different tapes")
    return a, b


# -- elementwise and structural primitives ----------------------------------


def add(a, b) -> Node:
    a, b = _pair(a, b)
    val = a.value + b.value

    def push(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return Node(a.tape, val, (a, b), push)


def sub(a, b) -> Node:
    a, b = _pair(a, b)
    val = a.value - b.value

    def push(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return Node(a.tape, val, (a, b), push)


def mul(a, b) -> Node:
    """Elementwise product with numpy broadcasting."""
    a, b = _pair(a, b)
    val = a.value * b.value

    def push(g):
        _accumulate(a, _unbroadcast(g * b.value, a.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.shape))

    return Node(a.tape, val, (a, b), push)


def div(a, b) -> Node:
    a, b = _pair(a, b)
    val = a.value / b.value

    def push(g):
        _accumulate(a, _unbroadcast(g / b.value, a.shape))
        _accumulate(b, _unbroadcast(-g * a.value / (b.value * b.value), b.shape))

    return Node(a.tape, val, (a, b), push)


def scale(a: Node, s: float) -> Node:
    """Multiply by a plain python constant (not a tape value)."""
    val = a.value * s

    def push(g):
        _accumulate(a, g * s)

    return Node(a.tape, val, (a,), push)


def matmul(a, b) -> Node:
    a, b = _pair(a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"matmul {a.shape} @ {b.shape}")
    val = a.value @ b.value

    def push(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    return Node(a.tape, val, (a, b), push)


def sigmoid(a: Node) -> Node:
    # 0.5 * (1 + tanh(x / 2)): one vectorized call, finite for any input
    out = 0.5 * (1.0 + np.tanh(0.5 * a.value))

    def push(g):
        _accumulate(a, g * out * (1.0 - out))

    return Node(a.tape, out, (a,), push)


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)

    def push(g):
        _accumulate(a, g * (1.0 - out * out))

    return Node(a.tape, out, (a,), push)


def exp(a: Node) -> Node:
    out = np.exp(a.value)

    def push(g):
        _accumulate(a, g * out)

    return Node(a.tape, out, (a,), push)


def log(a: Node) -> Node:
    out = np.log(a.value)

    def push(g):
        _accumulate(a, g / a.value)

    return Node(a.tape, out, (a,), push)


def sin(a: Node) -> Node:
    out = np.sin(a.value)

    def push(g):
        _accumulate(a, g * np.cos(a.value))

    return Node(a.tape, out, (a,), push)


def power(a: Node, p: float) -> Node:
    """Elementwise a**p for a constant exponent.

    The derivative p*a**(p-1) is clamped to 0 where it is not finite
    (a == 0 with p < 1). The kernels built on top only hit that point at
    zero pairwise distance, where the true gradient through the distance
    node vanishes anyway, so the clamp is exact there.
    """
    out = np.power(a.value, p)

    def push(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = p * np.power(a.value, p - 1.0)
        d = np.where(np.isfinite(d), d, 0.0)
        _accumulate(a, g * d)

    return Node(a.tape, out, (a,), push)


def softmax_rows(a: Node) -> Node:
    """Softmax along axis 1: each output row is nonnegative and sums to 1."""
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def push(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        _accumulate(a, out * (g - inner))

    return Node(a.tape, out, (a,), push)


def concat_cols(parts: list[Node]) -> Node:
    tape = parts[0].tape
    val = np.hstack([p.value for p in parts])
    widths = [p.shape[1] for p in parts]

    def push(g):
        j = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[:, j : j + w])
            j += w

    return Node(tape, val, tuple(parts), push)


def slice_cols(a: Node, j0: int, j1: int) -> Node:
    val = a.value[:, j0:j1].copy()

    def push(g):
        full = np.zeros_like(a.value)
        full[:, j0:j1] = g
        _accumulate(a, full)

    return Node(a.tape, val, (a,), push)


def sum_all(a: Node) -> Node:
    val = np.array([[a.value.sum()]])

    def push(g):
        _accumulate(a, np.full_like(a.value, g[0, 0]))

    return Node(a.tape, val, (a,), push)


def sqdist(a: Node, b: Node) -> Node:
    """Pairwise squared distances between rows of a (n x d) and b (m x d).

    Computed as |a|^2 + |b|^2 - 2 a b^T and clamped at 0 so cancellation
    can never produce a negative distance.
    """
    a, b = _pair(a, b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"sqdist feature dims differ: {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    raw = (
        (av * av).sum(axis=1, keepdims=True)
        + (bv * bv).sum(axis=1, keepdims=True).T
        - 2.0 * (av @ bv.T)
    )
    val = np.maximum(raw, 0.0)
    if a is b:
        # self-distances must be exactly zero, not rounding dust
        np.fill_diagonal(val, 0.0)

    def push(g):
        row = g.sum(axis=1, keepdims=True)
        col = g.sum(axis=0, keepdims=True).T
        _accumulate(a, 2.0 * (row * av - g @ bv))
        _accumulate(b, 2.0 * (col * bv - g.T @ av))

    return Node(a.tape, val, (a, b), push)


def add_diag(a: Node, s: Node) -> Node:
    """A + s * I for a square node A and a 1x1 scalar node s."""
    n, m = a.shape
    if n != m:
        raise DimensionMismatch(f"add_diag needs a square matrix, got {a.shape}")
    val = a.value + s.value[0, 0] * np.eye(n)

    def push(g):
        _accumulate(a, g)
        _accumulate(s, np.array([[np.trace(g)]]))

    return Node(a.tape, val, (a, s), push)


def chol_quad_form(a: Node, b: Node) -> Node:
    """Scalar b^T A^{-1} b via Cholesky; A symmetric positive definite, b a column.

    Adjoints: dA = -g * alpha alpha^T and db = 2 g alpha with alpha = A^{-1} b.
    """
    a, b = _pair(a, b)
    if b.shape[1] != 1 or b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"quad form needs column rhs matching A: {a.shape}, {b.shape}")
    factor = cholesky(a.value)
    alpha = solve_spd(factor, b.value)
    val = np.array([[(b.value.T @ alpha).item()]])

    def push(g):
        g00 = g[0, 0]
        _accumulate(a, -g00 * (alpha @ alpha.T))
        _accumulate(b, 2.0 * g00 * alpha)

    return Node(a.tape, val, (a, b), push)


def chol_logdet(a: Node) -> Node:
    """Scalar log|A| via Cholesky; adjoint is g * A^{-1}."""
    factor = cholesky(a.value)
    val = np.array([[factor.logdet()]])

    def push(g):
        inv = solve_spd(factor, np.eye(factor.n))
        _accumulate(a, g[0, 0] * inv)

    return Node(a.tape, val, (a,), push)


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    [[P, 0], [C, Q]]^{-1} = [[P^{-1}, 0], [-Q^{-1} C P^{-1}, Q^{-1}]], with
    blocks of at most 64 rows inverted directly. Only numpy's own BLAS and
    LAPACK run here (see chol_nll).
    """
    n = lower.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(lower))
    h = n // 2
    out = np.zeros_like(lower)
    out[:h, :h] = _lower_inverse(lower[:h, :h])
    out[h:, h:] = _lower_inverse(lower[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (lower[h:, :h] @ out[:h, :h]))
    return out


def chol_nll(a: Node, r: Node) -> Node:
    """Scalar 0.5 * r^T A^{-1} r + 0.5 * log|A| from a single factorization.

    The Gaussian negative log likelihood without its constant: A symmetric
    positive definite, r a column. With A = L L^T and alpha = A^{-1} r the
    adjoints are dA = g/2 * (A^{-1} - alpha alpha^T) (Rasmussen & Williams
    2006, eq. 5.9) and dr = g * alpha.

    alpha and A^{-1} = L^{-T} L^{-1} both come from the triangular inverse of
    the one Cholesky factor. Everything stays on numpy's BLAS: interleaving
    it with scipy's separately bundled BLAS (cho_solve, dpotri) in the
    training loop leaves two thread pools contending for the cores.
    """
    a, r = _pair(a, r)
    if r.shape[1] != 1 or r.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"nll needs column rhs matching A: {a.shape}, {r.shape}")
    factor = cholesky(a.value)
    l_inv = _lower_inverse(factor.lower)
    w = l_inv @ r.value  # L^{-1} r
    alpha = l_inv.T @ w
    val = np.array([[0.5 * (w.T @ w).item() + 0.5 * factor.logdet()]])

    def push(g):
        inv = l_inv.T @ l_inv
        inv -= alpha @ alpha.T
        inv *= 0.5 * g[0, 0]
        _accumulate(a, inv)
        _accumulate(r, g[0, 0] * alpha)

    return Node(a.tape, val, (a, r), push)


# ---------------------------------------------------------------------------
# Finite-difference gradient verification
# ---------------------------------------------------------------------------


def central_difference(value_fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        grad[i] = (value_fn(xp) - value_fn(xm)) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max_i |analytic_i - numeric_i| / (|numeric_i| + 1e-12)."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)))


def finite_diff_check(f, x, step: float) -> float:
    """Compare a function's analytic gradient against central differences.

    ``f(x)`` must return ``(value, gradient)`` for a flat parameter vector x;
    only the value is used at the perturbed points. Returns the max relative
    error; NaN produced by f propagates into the result rather than raising.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    _, analytic = f(x)
    numeric = central_difference(lambda xv: f(xv)[0], x, step)
    return max_relative_error(analytic, numeric)
