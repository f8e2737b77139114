"""Dense float64 linear algebra and a minimal fused-block reverse-mode tape.

Everything here works on 2-D ``numpy.float64`` arrays ("matrices"); scalars are
1x1 matrices and vectors are columns. Factorizations are delegated to LAPACK
via numpy/scipy: the Cholesky factor with its jitter ladder, the SPD solve,
and a block-recursive triangular inverse.

The tape holds no elementwise primitives. A node is either a leaf (a
parameter or input) or a fused block: a value computed in plain numpy plus a
hand-written vector-Jacobian product that maps the block's adjoint to one
adjoint per parent. The blocks live with the math they differentiate: the
encoder in ``encoder``, the kernel and the marginal likelihood in ``gp``, the
linear head in ``pipeline``. The tape is rebuilt per forward pass (dynamic
graph): appending nodes in creation order keeps the node list topologically
sorted, so the reverse sweep is a single reversed iteration.

Central finite differences check every block (see ``gradcheck``).
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


def lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    [[P, 0], [C, Q]]^{-1} = [[P^{-1}, 0], [-Q^{-1} C P^{-1}, Q^{-1}]], with
    blocks of at most 64 rows inverted directly. Only numpy's own BLAS and
    LAPACK run here (see gp.nmll_node).
    """
    n = lower.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(lower))
    h = n // 2
    out = np.zeros_like(lower)
    out[:h, :h] = lower_inverse(lower[:h, :h])
    out[h:, h:] = lower_inverse(lower[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (lower[h:, :h] @ out[:h, :h]))
    return out


# ---------------------------------------------------------------------------
# Fused-block tape
# ---------------------------------------------------------------------------


class Node:
    """A value on the tape: a leaf, or a fused block with its parents and VJP.

    ``vjp(g)`` maps the block's adjoint to one adjoint per parent, in
    ``parents`` order. A node refers to its tape weakly: the tape lists its
    nodes, and a strong reference back would make every tape a reference
    cycle that only the cyclic garbage collector frees. A tape is freed once
    the caller drops it.
    """

    __slots__ = ("_tape", "value", "adjoint", "_parents", "_vjp")

    def __init__(self, tape: "Tape", value: np.ndarray, parents=(), vjp=None):
        self._tape = tape._ref
        self.value = value
        self.adjoint = None
        self._parents = tuple(parents)
        if any(p._tape is not self._tape for p in self._parents):
            raise DimensionMismatch("operands live on different tapes")
        self._vjp = vjp
        tape.nodes.append(self)

    @property
    def tape(self) -> "Tape":
        tape = self._tape()
        if tape is None:
            raise ReferenceError("the node's tape has been freed")
        return tape

    @property
    def grad(self) -> np.ndarray:
        """Adjoint after backward(); zeros when the node is unreachable."""
        if self.adjoint is None:
            return np.zeros_like(self.value)
        return self.adjoint


class Tape:
    """Ordered list of nodes; creation order is the topological order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._ref = weakref.ref(self)

    def leaf(self, value) -> Node:
        """A parameter or input; backward() leaves its gradient in ``.grad``."""
        return Node(self, require_finite(as_matrix(value), "tape leaf"))


def custom(tape: Tape, value: np.ndarray, parents, vjp) -> Node:
    """Register a fused block with a hand-written VJP as one node.

    The encoder registers its block here. ``bench/spans.py`` times every VJP
    handed to this function as the encoder's reverse pass, so the GP and head
    blocks construct their ``Node`` directly.
    """
    return Node(tape, value, parents, vjp)


def backward(tape: Tape, output: Node) -> None:
    """Reverse sweep seeding d(output)/d(output) = 1; output must be 1x1.

    Afterwards every leaf's .grad is d(output)/d(leaf).
    """
    if output.value.size != 1:
        raise NonScalarOutput(
            f"backward needs a scalar output node, got shape {output.value.shape}"
        )
    for node in tape.nodes:
        node.adjoint = None
    output.adjoint = np.ones((1, 1))
    for node in reversed(tape.nodes):
        if node.adjoint is not None and node._vjp is not None:
            for parent, adj in zip(node._parents, node._vjp(node.adjoint)):
                _accumulate(parent, adj)


def _accumulate(node: Node, g: np.ndarray) -> None:
    if node.adjoint is None:
        # a private copy: later contributions add into it in place
        node.adjoint = np.array(np.broadcast_to(g, node.value.shape), dtype=np.float64)
    else:
        node.adjoint += g


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
