"""Bidirectional LSTM over daily weather windows with additive attention.

Each event's T x W weather window is encoded to a D-dimensional latent
vector: two LSTM passes (forward and reversed time), per-step state
concatenation, a linear attention score per step, softmax over time, and a
tanh projection of the attention-weighted context. The whole computation is
one fused block on a numcore tape whose only parent is a leaf holding the
flat parameter vector, so gradients flow to every parameter.

Inside the block each direction's four gates share fused weights, with gate
blocks in the order (output, input, forget, cell): (W+1) x 4H for the inputs,
the bias being the row that meets a constant-one input, and H x 4H for the
recurrence. Arrays are feature-major, with the batch as the last, contiguous
axis: the inputs are (W+1) x T x N, each step's gates a contiguous 4H x N
block of a T x 4H x N array, and every gate's slice an H x N block whose rows
are N values long, so the elementwise work of a step runs on long contiguous
rows at any hidden size. One product gives the input projection and bias of
all steps, each step adds one recurrent product, the adjoint of a step's
state is one product with the recurrent weights, and the weight and bias
gradient is one product over all T*N columns.

The two directions are independent. When a step is large, N * H at least
_THREAD_MIN_STATE, and this process may run on more than one CPU, the
reverse direction runs on a worker thread created for the call, in the
forward pass and again in the reverse pass, while the calling thread runs
the forward direction; numpy releases the GIL inside each of their array
operations. Both paths do the same arithmetic on separate buffers, so their
results are bit-identical. The threshold is the measured crossover of one
forward plus reverse pass at T=30, W=9 (2-vCPU Xeon, OpenBLAS 0.3.31 at
OPENBLAS_NUM_THREADS=1). At N=400 two threads were 20% slower at H=8
(N*H = 3,200), even at H=12 (4,800) and 18-20% faster at H=16 (6,400). At
N*H = 6,400 they also won at N=800, H=8 (8%) and at N=100, H=64 (32%).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import NonFiniteInput, ShapeMismatch

GATE_NAMES = ("input", "forget", "cell", "output")


@dataclass
class EncoderConfig:
    input_width: int = 9  # weather channels per day
    seq_len: int = 30  # days in the window
    hidden: int = 64  # LSTM state size per direction
    latent: int = 20  # projected latent dimension
    seed: int = 0

    def __post_init__(self):
        for name in ("input_width", "seq_len", "hidden", "latent"):
            if getattr(self, name) < 1:
                raise ShapeMismatch(f"EncoderConfig.{name} must be >= 1")


@dataclass
class CellParams:
    """One direction's LSTM cell: per-gate weights (W+d_h) x d_h and biases 1 x d_h.

    Gate order everywhere is (input, forget, cell, output).
    """

    w_input: np.ndarray
    w_forget: np.ndarray
    w_cell: np.ndarray
    w_output: np.ndarray
    b_input: np.ndarray
    b_forget: np.ndarray
    b_cell: np.ndarray
    b_output: np.ndarray

    def arrays(self):
        return [
            self.w_input, self.w_forget, self.w_cell, self.w_output,
            self.b_input, self.b_forget, self.b_cell, self.b_output,
        ]


@dataclass
class EncoderParams:
    config: EncoderConfig
    forward_cell: CellParams
    backward_cell: CellParams
    attn_w: np.ndarray  # 2d_h x 1
    attn_b: np.ndarray  # 1 x 1
    proj_w: np.ndarray  # 2d_h x D
    proj_b: np.ndarray  # 1 x D

    def arrays(self):
        return (
            self.forward_cell.arrays()
            + self.backward_cell.arrays()
            + [self.attn_w, self.attn_b, self.proj_w, self.proj_b]
        )

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    @classmethod
    def from_flat(cls, cfg: EncoderConfig, flat: np.ndarray) -> "EncoderParams":
        expected = param_count(cfg)
        if flat.size != expected:
            raise ShapeMismatch(f"expected {expected} parameters, got {flat.size}")
        shapes = _param_shapes(cfg)
        out, j = [], 0
        for shp in shapes:
            k = shp[0] * shp[1]
            out.append(np.asarray(flat[j : j + k], dtype=np.float64).reshape(shp))
            j += k
        return cls(
            config=cfg,
            forward_cell=CellParams(*out[0:8]),
            backward_cell=CellParams(*out[8:16]),
            attn_w=out[16],
            attn_b=out[17],
            proj_w=out[18],
            proj_b=out[19],
        )


def _param_shapes(cfg: EncoderConfig):
    win = cfg.input_width + cfg.hidden
    cell = [(win, cfg.hidden)] * 4 + [(1, cfg.hidden)] * 4
    return cell + cell + [
        (2 * cfg.hidden, 1),
        (1, 1),
        (2 * cfg.hidden, cfg.latent),
        (1, cfg.latent),
    ]


def param_count(cfg: EncoderConfig) -> int:
    return sum(r * c for r, c in _param_shapes(cfg))


def init_params(cfg: EncoderConfig) -> EncoderParams:
    """Seeded uniform(-1/sqrt(d_h), 1/sqrt(d_h)) weights; zero biases except
    the forget gates, which start at 1.0 to keep early memory open.

    Draw order is fixed (forward cell gates i/f/c/o, backward cell, attention,
    projection) so a seed reproduces parameters bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    bound = 1.0 / np.sqrt(cfg.hidden)
    win = cfg.input_width + cfg.hidden

    def cell():
        ws = [rng.uniform(-bound, bound, size=(win, cfg.hidden)) for _ in range(4)]
        bs = [np.zeros((1, cfg.hidden)) for _ in range(4)]
        bs[1] = np.ones((1, cfg.hidden))  # forget gate
        return CellParams(*ws, *bs)

    fwd, bwd = cell(), cell()
    attn_w = rng.uniform(-bound, bound, size=(2 * cfg.hidden, 1))
    proj_w = rng.uniform(-bound, bound, size=(2 * cfg.hidden, cfg.latent))
    return EncoderParams(
        config=cfg,
        forward_cell=fwd,
        backward_cell=bwd,
        attn_w=attn_w,
        attn_b=np.zeros((1, 1)),
        proj_w=proj_w,
        proj_b=np.zeros((1, cfg.latent)),
    )


@dataclass
class EncoderOutput:
    latent: nc.Node  # N x D, the encoder block
    alpha: np.ndarray  # N x T attention weights, rows sum to 1
    params: nc.Node  # leaf holding params.flatten(); its grad after backward()

    @property
    def Z(self) -> np.ndarray:
        return self.latent.value


# Gate blocks of the fused weights inside the recurrence, as indices into
# the (input, forget, cell, output) order of CellParams: the three sigmoid
# gates come first so one slice covers them, then the cell candidate.
_GATE_ORDER = (3, 0, 1, 2)  # output, input, forget, cell
# Halving the sigmoid gates' pre-activations lets one tanh evaluate all four:
# sigmoid(x) = 0.5 * (1 + tanh(x / 2)).
_GATE_SCALE = (0.5, 0.5, 0.5, 1.0)
# Rows times hidden units (N * H) from which the two directions run on two
# threads (see the module docstring). Below it the GIL hand-offs between
# many short numpy calls cost as much as the overlap saves.
_THREAD_MIN_STATE = 6_400


def _fuse_cell(cell, width: int):
    """One direction's weights as two gate-blocked matrices.

    Returns the (W+1) x 4H input weights, whose last row is the bias, and the
    H x 4H recurrent weights; column block k belongs to gate _GATE_ORDER[k].
    """
    w = np.concatenate([cell[k] for k in _GATE_ORDER], axis=1)  # (W+H) x 4H
    b = np.concatenate([cell[4 + k] for k in _GATE_ORDER], axis=1)  # 1 x 4H
    return np.vstack([w[:width], b]), w[width:]


def _lstm_pass(x1, w_x1, w_h, states, reverse):
    """Run one LSTM direction; write its hidden states into ``states``.

    ``x1`` is (W+1) x T x N, the inputs with a row of ones, so one batched
    product with ``w_x1`` gives every step's input projection plus bias
    straight into the T x 4H x N gate array; each step then adds w_h^T h to
    its 4H x N block. ``states`` is H x T x N. Returns the gate activations
    and the cell states and their tanh (T x H x N), all indexed by original
    time whichever way the pass runs.
    """
    _, t_len, n = x1.shape
    d_h = w_h.shape[0]
    scale = np.repeat(_GATE_SCALE, d_h)[:, None]
    gates = np.matmul(w_x1.T * scale, x1.transpose(1, 0, 2))  # T x 4H x N
    w_h = w_h.T * scale  # 4H x H
    cells = np.empty((t_len, d_h, n))
    tanh_cells = np.empty((t_len, d_h, n))
    recur = np.empty((4 * d_h, n))
    c = np.zeros((d_h, n))
    h = None
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        g = gates[t]
        if h is not None:
            g += np.matmul(w_h, h, out=recur)
        np.tanh(g, out=g)
        sig = g[: 3 * d_h]
        sig *= 0.5
        sig += 0.5
        o, i, f, cand = (g[k * d_h:(k + 1) * d_h] for k in range(4))
        np.multiply(f, c, out=cells[t])
        cells[t] += i * cand
        c = cells[t]
        np.tanh(c, out=tanh_cells[t])
        h = states[:, t]
        np.multiply(o, tanh_cells[t], out=h)
    return gates, cells, tanh_cells


def _lstm_backprop(d_ctx, att, w_att, d_scores, gates, cells, tanh_cells, w_h, reverse):
    """Backpropagation through time for one _lstm_pass direction.

    The hidden state at step t reaches the output through the context, with
    adjoint ``d_ctx * att[t]``, and through its score, with adjoint
    ``w_att * d_scores[t]`` (``d_ctx`` and ``w_att`` are this direction's
    H x N and H x 1 halves; ``att`` and ``d_scores`` are T x N). Returns the
    adjoint of the gate pre-activations (4H x T x N). ``w_h`` holds the
    unscaled H x 4H recurrent weights, so each step's state adjoint is one
    product w_h @ d_pre[:, t]. Each step computes its gate slopes from the
    stored gates into one reused 4 x H x N buffer.
    """
    t_len, four_h, n = gates.shape
    d_h = four_h // 4
    g4 = gates.reshape(t_len, 4, d_h, n)
    d_pre = np.empty((four_h, t_len, n))
    dp4 = d_pre.reshape(4, d_h, t_len, n)
    slope = np.empty((4, d_h, n))
    buf = np.empty((d_h, n))
    no_cell = np.zeros((d_h, n))
    dh = np.zeros((d_h, n))
    dc = np.zeros((d_h, n))
    for t in range(t_len) if reverse else range(t_len - 1, -1, -1):
        prev = t + 1 if reverse else t - 1
        c_prev = cells[prev] if 0 <= prev < t_len else no_cell
        g, dp = g4[t], dp4[:, :, t]
        o, i, f, cand = g
        tc = tanh_cells[t]
        np.multiply(d_ctx, att[t], out=buf)
        dh += buf
        np.multiply(w_att, d_scores[t], out=buf)
        dh += buf
        # h = o * tanh(c): dc += dh * o * (1 - tanh(c)^2)
        np.multiply(tc, tc, out=buf)
        np.subtract(1.0, buf, out=buf)
        buf *= o
        buf *= dh
        dc += buf
        # each pre-activation adjoint is dh or dc times the gate's slope and
        # the factor it multiplies in the state update
        np.subtract(1.0, g[:3], out=slope[:3])
        slope[:3] *= g[:3]
        np.multiply(cand, cand, out=slope[3])
        np.subtract(1.0, slope[3], out=slope[3])
        slope[0] *= tc
        slope[1] *= cand
        slope[2] *= c_prev
        slope[3] *= i
        np.multiply(slope[0], dh, out=dp[0])
        np.multiply(slope[1:], dc, out=dp[1:])
        dc *= f
        np.matmul(w_h, d_pre[:, t], out=dh)
    return d_pre


def _weight_grads(x1, states, d_pre, reverse):
    """Gradient of one direction's fused weights from its gate adjoints.

    One (W+1+H) x T*N by T*N x 4H product: the left factor stacks each
    step's inputs and ones row (``x1``) on the hidden state the step read,
    which is zero before the first step. Rows of the result follow the
    inputs, the bias, then the recurrent weights.
    """
    width1, t_len, n = x1.shape
    d_h = states.shape[0]
    xh = np.empty((width1 + d_h, t_len, n))
    xh[:width1] = x1
    h_prev = xh[width1:]
    if reverse:
        h_prev[:, :-1] = states[:, 1:]
        h_prev[:, -1] = 0.0
    else:
        h_prev[:, 1:] = states[:, :-1]
        h_prev[:, 0] = 0.0
    return xh.reshape(width1 + d_h, -1) @ d_pre.reshape(d_pre.shape[0], -1).T


def _thread_directions(n: int, d_h: int) -> bool:
    """Whether to run the two directions on two threads: only when each step
    is large enough and more than one CPU is available to this process."""
    if n * d_h < _THREAD_MIN_STATE:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) > 1


def _both_directions(threaded: bool, run):
    """(run(0), run(1)): the reverse direction on a worker thread created for
    this call when ``threaded``, else one after the other."""
    if not threaded:
        return run(0), run(1)
    with ThreadPoolExecutor(max_workers=1) as pool:
        reverse = pool.submit(run, 1)
        return run(0), reverse.result()


def forward(params: EncoderParams, batch: np.ndarray, tape: nc.Tape) -> EncoderOutput:
    """Encode an N x T x W batch to an N x D latent matrix on the tape.

    Per step t the bidirectional state concatenates the forward pass state at
    t with the backward pass (reversed-sequence) state at the same original
    index. Attention scores are a single linear layer over that state.

    The whole encoder is one fused tape block: the input projection and bias
    of all steps is one matmul per direction, each step adds one recurrent
    matmul into its gate block, and the block's adjoint is hand-written
    backpropagation through time (gate equations of Hochreiter & Schmidhuber
    1997) behind the attention and projection layers. Its reverse pass writes
    the gradient of every parameter, in flatten() order, into one leaf.
    """
    cfg = params.config
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1] != cfg.seq_len or batch.shape[2] != cfg.input_width:
        raise ShapeMismatch(
            f"batch shape {batch.shape} does not match (N, {cfg.seq_len}, {cfg.input_width})"
        )
    if not np.all(np.isfinite(batch)):
        raise NonFiniteInput("encoder batch contains NaN or Inf")
    n, width, d_h = batch.shape[0], cfg.input_width, cfg.hidden

    arrays = params.arrays()
    leaf = tape.leaf(params.flatten())
    x1 = np.empty((width + 1, cfg.seq_len, n))  # the inputs and a row of ones
    x1[:width] = batch.transpose(2, 1, 0)
    x1[width] = 1.0
    attn_w, proj_w, proj_b = arrays[16], arrays[18], arrays[19]
    fused = (_fuse_cell(arrays[0:8], width), _fuse_cell(arrays[8:16], width))
    hs = np.empty((2 * d_h, cfg.seq_len, n))  # both directions' states
    halves = (hs[:d_h], hs[d_h:])
    threaded = _thread_directions(n, d_h)
    runs = _both_directions(
        threaded, lambda k: _lstm_pass(x1, *fused[k], halves[k], reverse=k == 1)
    )

    # The score bias attn_b shifts every logit of an event by the same amount,
    # which the softmax cancels exactly; leaving it out of the sum keeps the
    # output bit-independent of it, and its gradient is exactly zero.
    scores = np.einsum("ktn,k->tn", hs, attn_w[:, 0])  # T x N
    e = np.exp(scores - scores.max(axis=0))
    att = e / e.sum(axis=0)  # T x N, each column a distribution over time
    if not (np.all(att >= 0.0) and np.max(np.abs(att.sum(axis=0) - 1.0)) < 1e-10):
        raise NonFiniteInput("attention weights are not a distribution over time steps")
    context = np.einsum("ktn,tn->nk", hs, att)
    latent = np.tanh(context @ proj_w + proj_b)

    def vjp(g):
        d_u = g * (1.0 - latent * latent)
        d_ctx = proj_w @ d_u.T  # 2H x N
        d_att = np.einsum("ktn,kn->tn", hs, d_ctx)
        d_scores = att * (d_att - (d_att * att).sum(axis=0))

        def direction_grads(k):
            half = slice(k * d_h, (k + 1) * d_h)
            d_pre = _lstm_backprop(
                d_ctx[half], att, attn_w[half], d_scores, *runs[k], fused[k][1], reverse=k == 1
            )
            return _weight_grads(x1, halves[k], d_pre, reverse=k == 1)

        grads = [None] * 16
        for k, d_w in enumerate(_both_directions(threaded, direction_grads)):
            for pos, gate in enumerate(_GATE_ORDER):
                block = slice(pos * d_h, (pos + 1) * d_h)
                grads[8 * k + gate] = np.vstack([d_w[:width, block], d_w[width + 1:, block]])
                grads[8 * k + 4 + gate] = d_w[width:width + 1, block]
        grads += [
            np.einsum("ktn,tn->k", hs, d_scores).reshape(-1, 1),
            np.zeros((1, 1)),
            context.T @ d_u,
            d_u.sum(axis=0, keepdims=True),
        ]
        return (np.concatenate([a.ravel() for a in grads]).reshape(-1, 1),)

    block = nc.custom(tape, latent, (leaf,), vjp)
    return EncoderOutput(latent=block, alpha=att.T, params=leaf)
