"""Bidirectional LSTM over daily weather windows with additive attention.

Each event's T x W weather window is encoded to a D-dimensional latent
vector: two LSTM passes (forward and reversed time), per-step state
concatenation, a linear attention score per step, softmax over time, and a
tanh projection of the attention-weighted context. The whole computation is
one fused block on a numcore tape whose only parent is a leaf holding the
flat parameter vector, so gradients flow to every parameter.
"""

from __future__ import annotations

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


# Gate blocks of the stacked weights inside the recurrence, as indices into
# the (input, forget, cell, output) order of CellParams: the three sigmoid
# gates come first so one slice covers them, then the cell candidate.
_GATE_ORDER = (3, 0, 1, 2)  # output, input, forget, cell
# Halving the sigmoid gates' pre-activations lets one tanh evaluate all four:
# sigmoid(x) = 0.5 * (1 + tanh(x / 2)).
_GATE_SCALE = np.array([0.5, 0.5, 0.5, 1.0]).reshape(4, 1, 1)


def _lstm_pass(xp: np.ndarray, w_h: np.ndarray, reverse: bool):
    """Run one LSTM direction over precomputed input projections.

    ``xp`` is T x 4 x N x H (input projection plus bias, one block per gate)
    and ``w_h`` the 4 x H x H recurrent weights, both scaled by _GATE_SCALE.
    Returns the gate activations (T x 4 x N x H), the cell states, their tanh
    and the hidden states (T x N x H each), all indexed by original time
    whichever way the pass runs.
    """
    t_len, _, n, d_h = xp.shape
    gates = np.empty_like(xp)
    cells = np.empty((t_len, n, d_h))
    tanh_cells = np.empty((t_len, n, d_h))
    states = np.empty((t_len, n, d_h))
    h = np.zeros((n, d_h))
    c = np.zeros((n, d_h))
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        g = gates[t]
        np.matmul(h, w_h, out=g)
        g += xp[t]
        np.tanh(g, out=g)
        sig = g[:3]
        sig *= 0.5
        sig += 0.5
        np.multiply(g[2], c, out=cells[t])
        cells[t] += g[1] * g[3]
        c = cells[t]
        np.tanh(c, out=tanh_cells[t])
        np.multiply(g[0], tanh_cells[t], out=states[t])
        h = states[t]
    return gates, cells, tanh_cells, states


def _shift_prev(a: np.ndarray, reverse: bool) -> np.ndarray:
    """Per-step previous state in processing order (zeros before the first step)."""
    prev = np.zeros_like(a)
    if reverse:
        prev[:-1] = a[1:]
    else:
        prev[1:] = a[:-1]
    return prev


def _lstm_backprop(d_states, gates, cells, tanh_cells, w_h, reverse):
    """Backpropagation through time for one _lstm_pass direction.

    Takes the adjoint of every hidden state (T x N x H) and returns the
    adjoint of the gate pre-activations (T x 4 x N x H); ``w_h`` holds the
    unscaled 4 x H x H recurrent weights.
    """
    t_len, _, n, d_h = gates.shape
    o, i, f, g = (gates[:, k] for k in range(4))
    # each pre-activation adjoint is dh or dc times the gate's slope and the
    # factor it multiplies in the cell update
    via_h = tanh_cells * o * (1.0 - o)
    via_c = np.stack(
        [g * i * (1.0 - i), _shift_prev(cells, reverse) * f * (1.0 - f), i * (1.0 - g * g)],
        axis=1,
    )
    h_to_c = o * (1.0 - tanh_cells * tanh_cells)
    w_back = w_h.transpose(0, 2, 1)
    d_pre = np.empty_like(gates)
    dh = np.zeros((n, d_h))
    dc = np.zeros((n, d_h))
    for t in range(t_len) if reverse else range(t_len - 1, -1, -1):
        dh += d_states[t]
        dc += dh * h_to_c[t]
        dp = d_pre[t]
        np.multiply(dh, via_h[t], out=dp[0])
        np.multiply(dc, via_c[t], out=dp[1:])
        dc *= f[t]
        dh = np.matmul(dp, w_back).sum(axis=0)
    return d_pre


def forward(params: EncoderParams, batch: np.ndarray, tape: nc.Tape) -> EncoderOutput:
    """Encode an N x T x W batch to an N x D latent matrix on the tape.

    Per step t the bidirectional state concatenates the forward pass state at
    t with the backward pass (reversed-sequence) state at the same original
    index. Attention scores are a single linear layer over that state.

    The whole encoder is one fused tape block: the input projection of all
    steps is one batched matmul call, the recurrences run on preallocated
    gate arrays, and the block's adjoint is hand-written backpropagation
    through time (gate equations of Hochreiter & Schmidhuber 1997) behind
    the attention and projection layers. Its reverse pass writes the
    gradient of every parameter, in flatten() order, into one leaf.
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
    x_steps = np.ascontiguousarray(batch.transpose(1, 0, 2))  # T x N x W
    attn_w, proj_w, proj_b = arrays[16], arrays[18], arrays[19]

    directions = []
    for cell, reverse in ((arrays[0:8], False), (arrays[8:16], True)):
        w = np.stack([cell[k] for k in _GATE_ORDER])  # 4 x (W+H) x H
        b = np.stack([cell[4 + k] for k in _GATE_ORDER])  # 4 x 1 x H
        w_x, w_h = w[:, :width], w[:, width:]
        # one N x W by W x H product per step and gate keeps every matmul in
        # the block N rows tall: at small hidden sizes they stay below
        # OpenBLAS's multithreading threshold, where handing half of a
        # product to a second thread costs more than the product itself
        xp = np.matmul(x_steps[:, None], w_x * _GATE_SCALE) + b * _GATE_SCALE  # T x 4 x N x H
        run = _lstm_pass(xp, w_h * _GATE_SCALE, reverse)
        directions.append((w_h, reverse, run))

    hs = np.concatenate([run[3] for _, _, run in directions], axis=2)  # T x N x 2H
    # The score bias attn_b shifts every logit of a row by the same amount,
    # which the softmax cancels exactly; leaving it out of the sum keeps the
    # output bit-independent of it, and its gradient is exactly zero.
    scores = np.einsum("tnk,k->nt", hs, attn_w[:, 0])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attention = e / e.sum(axis=1, keepdims=True)
    if not (np.all(attention >= 0.0) and np.max(np.abs(attention.sum(axis=1) - 1.0)) < 1e-10):
        raise NonFiniteInput("attention weights are not a distribution over time steps")
    context = np.einsum("nt,tnk->nk", attention, hs)
    latent = np.tanh(context @ proj_w + proj_b)

    def vjp(g):
        d_u = g * (1.0 - latent * latent)
        d_ctx = d_u @ proj_w.T
        d_att = np.einsum("nk,tnk->nt", d_ctx, hs)
        d_scores = attention * (d_att - (d_att * attention).sum(axis=1, keepdims=True))
        d_hs = attention.T[:, :, None] * d_ctx + d_scores.T[:, :, None] * attn_w[:, 0]
        grads = [None] * 16
        ones_row = np.ones((1, n))
        for k, (w_h, reverse, (gates, cells, tanh_cells, states)) in enumerate(directions):
            d_pre = _lstm_backprop(
                d_hs[:, :, k * d_h:(k + 1) * d_h], gates, cells, tanh_cells, w_h, reverse
            )
            xh = np.concatenate([x_steps, _shift_prev(states, reverse)], axis=2)
            d_w = np.matmul(xh.transpose(0, 2, 1)[:, None], d_pre).sum(axis=0)  # 4 x (W+H) x H
            d_b = np.matmul(ones_row, d_pre).sum(axis=0)  # 4 x 1 x H
            for pos, gate in enumerate(_GATE_ORDER):
                grads[8 * k + gate] = d_w[pos]
                grads[8 * k + 4 + gate] = d_b[pos]
        grads += [
            np.einsum("tnk,nt->k", hs, d_scores).reshape(-1, 1),
            np.zeros((1, 1)),
            context.T @ d_u,
            d_u.sum(axis=0, keepdims=True),
        ]
        return (np.concatenate([a.ravel() for a in grads]).reshape(-1, 1),)

    block = nc.custom(tape, latent, (leaf,), vjp)
    return EncoderOutput(latent=block, alpha=attention, params=leaf)
