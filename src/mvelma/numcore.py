"""Dense float64 linear algebra and a minimal fused-block reverse-mode tape.

Everything here works on 2-D ``numpy.float64`` arrays ("matrices"); scalars are
1x1 matrices and vectors are columns. One Cholesky factor, with its jitter
ladder, carries its block-recursive triangular inverse, and every SPD solve
goes through that inverse, all on numpy's BLAS and LAPACK.

The tape holds no elementwise primitives. A node is either a leaf (a
parameter or input) or a fused block: a value computed in plain numpy plus a
hand-written vector-Jacobian product that maps the block's adjoint to one
adjoint per parent. The encoder in ``encoder`` is the one block on the tape;
the marginal likelihood in ``gp`` and the linear head in ``pipeline`` return
their value and gradients directly, and ``backward`` seeds the encoder's
output with the loss's gradient in the latents. The tape is rebuilt per forward pass
(dynamic graph): appending nodes in creation order keeps the node list
topologically sorted, so the reverse sweep is a single reversed iteration.

Central finite differences check every block (see ``gradcheck``).

The one way the package runs work on threads is also here: ``run_parts`` and
``cpu_count``, which the forest and the encoder use, and ``one_blas_thread``,
which holds numpy's OpenBLAS at one thread while the pipeline computes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite

# Diagonal jitter ladder tried before giving up on a factorization.
JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)
# Rows per block of cholesky's symmetry check.
_CHECK_ROWS = 64

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _retain_freed_heap() -> None:
    """Keep freed blocks in the heap for reuse instead of returning them.

    A tape is freed as soon as its training step returns, so every epoch frees
    its whole working set. By default glibc gives blocks above a moving
    threshold back to the kernel, and the next epoch faults them in again:
    one criterion-7 `full` training took 665k page faults this way, against
    17k with these settings. Blocks under 32 MiB come from the heap, and up to
    1 GiB of free heap is kept.

    Every thread allocates from the one main heap. A worker thread of
    run_parts would otherwise get a heap of its own, which keeps its share of
    the working set after the call, beside the main heap's: with two forest
    workers on two heaps, the peak RSS of the seven criterion-7 ablation
    variants rose from 77-80 MB to 89 MB. Other C libraries are left as they
    are.
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
    mallopt(_M_ARENA_MAX, 1)


_retain_freed_heap()


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else os.cpu_count(); at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


@functools.cache
def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, found once; None where there is no such library."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so")
    for lib in glob.glob(pattern):
        try:
            dll = ctypes.CDLL(lib)
            get, put = dll.scipy_openblas_get_num_threads64_, dll.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _BlasPin:
    """The holders of one_blas_thread in this process, counted under a lock,
    and the count the first of them found."""

    lock = threading.Lock()
    holders = 0
    saved = 1


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread, then give the caller's count
    back (threadpoolctl's threadpool_limits, https://github.com/joblib/threadpoolctl).
    Also a decorator; without that library it does nothing.

    The pool is one per process, so holders are counted, on any thread and
    nested: the first to enter saves the count and pins it, and the last to
    leave restores it. A thread that leaves while another still computes
    leaves the pin in place.
    """
    get, put = openblas_threads() or (lambda: 1, lambda count: None)
    with _BlasPin.lock:
        if _BlasPin.holders == 0:
            _BlasPin.saved = get()
            put(1)
        _BlasPin.holders += 1
    try:
        yield
    finally:
        with _BlasPin.lock:
            _BlasPin.holders -= 1
            if _BlasPin.holders == 0:
                put(_BlasPin.saved)


def run_parts(run, k: int) -> list:
    """[run(0), ..., run(k - 1)]: parts 1..k-1 each on a worker thread created
    for this call, part 0 on the calling thread, so one part starts no thread.

    The parts overlap only inside numpy calls that release the GIL, and must
    write to separate buffers.
    """
    if k == 1:
        return [run(0)]
    with ThreadPoolExecutor(max_workers=k - 1) as pool:
        rest = [pool.submit(run, i) for i in range(1, k)]
        return [run(0)] + [part.result() for part in rest]


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
    """arr itself, or NonFiniteInput "<what> contains NaN or Inf"."""
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{what} contains NaN or Inf")
    return arr


# ---------------------------------------------------------------------------
# Cholesky factorization and SPD solves
# ---------------------------------------------------------------------------


@dataclass
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix,
    and its inverse L^-1.

    ``jitter`` records the diagonal boost (possibly 0) that made the
    factorization succeed.
    """

    lower: np.ndarray
    inverse: np.ndarray
    n: int
    jitter: float = 0.0

    def logdet(self) -> float:
        """log|A| of the factored matrix, 2 * sum(log(diag(L)))."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))


def plus_diagonal(m: np.ndarray, value: float) -> np.ndarray:
    """A copy of square m with value added to each diagonal entry: m + value*I
    without forming I, the same bits wherever no off-diagonal entry is -0.0."""
    out = m.copy()
    out.flat[::out.shape[0] + 1] += value
    return out


def cholesky(m) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix, escalating diagonal jitter
    through JITTER_LADDER.

    Raises NotPositiveDefinite when the whole jitter ladder fails, and
    DimensionMismatch for non-square or asymmetric input: max|m - m^T| above
    1e-10 max(1, max|m|). Both maxima are exact, and the check makes no
    temporary larger than _CHECK_ROWS rows of m.
    """
    m = require_finite(as_matrix(m), "cholesky input")
    n, ncols = m.shape
    if n != ncols:
        raise DimensionMismatch(f"cholesky needs a square matrix, got {m.shape}")
    scale = max(1.0, float(m.max()), -float(m.min()))
    asymmetry = max(float(np.max(np.abs(m[i:i + _CHECK_ROWS] - m[:, i:i + _CHECK_ROWS].T)))
                    for i in range(0, n, _CHECK_ROWS))
    if asymmetry > 1e-10 * scale:
        raise DimensionMismatch("cholesky input is not symmetric within 1e-10")
    for jit in JITTER_LADDER:
        try:
            lower = np.linalg.cholesky(plus_diagonal(m, jit) if jit else m)
        except np.linalg.LinAlgError:
            continue
        return CholeskyFactor(lower=lower, inverse=lower_inverse(lower), n=n, jitter=jit)
    raise NotPositiveDefinite(
        f"matrix of size {n} is not positive definite (max jitter {JITTER_LADDER[-1]:g})"
    )


def solve_spd(f: CholeskyFactor, b) -> np.ndarray:
    """Solve A x = b given the Cholesky factor of A, as L^-T (L^-1 b).

    b is n x k (or a vector)."""
    b = as_matrix(b)
    if b.shape[0] != f.n:
        raise DimensionMismatch(f"rhs has {b.shape[0]} rows, factor is {f.n}x{f.n}")
    return f.inverse.T @ (f.inverse @ b)


def lower_inverse(lower: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    [[P, 0], [C, Q]]^{-1} = [[P^{-1}, 0], [-Q^{-1} C P^{-1}, Q^{-1}]], with
    blocks of at most 64 rows inverted directly. Each block is written into
    its view of one output array, the off-diagonal one by matmul and an
    in-place negation, so no level allocates a result of its own.
    """
    out = np.zeros_like(lower) if out is None else out
    n = lower.shape[0]
    if n <= 64:
        out[...] = np.tril(np.linalg.inv(lower))
        return out
    h = n // 2
    lower_inverse(lower[:h, :h], out[:h, :h])
    lower_inverse(lower[h:, h:], out[h:, h:])
    corner = out[h:, :h]
    np.matmul(out[h:, h:], lower[h:, :h] @ out[:h, :h], out=corner)
    np.negative(corner, out=corner)
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

    The encoder's block is the one registered here, and ``bench/spans.py``
    times every VJP handed to this function as the encoder's reverse pass;
    a block registered here is counted as encoder time.
    """
    return Node(tape, value, parents, vjp)


def backward(tape: Tape, output: Node, adjoint) -> None:
    """Reverse sweep seeding the output's adjoint with ``adjoint``, broadcast
    to the output's shape (1.0 seeds a 1x1 output).

    Afterwards every leaf's .grad is the gradient of sum(adjoint * output)
    in that leaf.
    """
    for node in tape.nodes:
        node.adjoint = None
    _accumulate(output, adjoint)
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
