"""Bidirectional LSTM over daily weather windows with additive attention.

Each event's T x W weather window is encoded to a D-dimensional latent
vector: two LSTM passes (forward and reversed time), per-step state
concatenation, a linear attention score per step, softmax over time, and a
tanh projection of the attention-weighted context. For training, the whole
computation is one fused block on a numcore tape whose only parent is a leaf
holding the flat parameter vector, so gradients flow to every parameter;
numcore.backward seeds the block with the loss's gradient in the latents. To
encode for prediction, forward runs without a tape.

The parameters are stored in the layout the kernels use (EncoderParams):
each direction's four gates share one (W+1+H) x 4H matrix, rows being the
input weights, the bias, which meets a constant-one input, and the recurrent
weights, and column blocks the gates in the order (output, input, forget,
cell). The block reads these matrices as they are and writes its gradient
straight into a vector of the same layout. The model file keeps its per-gate
order; one permutation (_file_order) maps between the two at save and load,
and init_params draws in file order so a seed gives the same parameters.

Arrays are feature-major, with the batch as the last, contiguous axis: the
inputs are (W+1) x T x N, each step's gates one 4H x N block and every
gate's slice an H x N block whose rows are N values long, so the elementwise
work of a step runs on long contiguous rows at any hidden size. Each step
writes its input projection and bias, one product, into its gate block and
adds one recurrent product. Backpropagation through time keeps only one
step's adjoints: each step's pre-activation adjoint goes to one reused
4H x N buffer, and while it is in cache two products add the step's share
of the weight and bias gradient and one more gives the adjoint of the state
the step read. Only the taped forward stores the gates and cells of every
step for that, and not tanh(c): the reverse pass recomputes it from the
stored cell into one reused H x N buffer, with the same np.tanh on the same
block, so the gradient is the same bits. Without a tape each direction
reuses one step's gate and cell buffers and keeps only the hidden states
the attention reads.

The two directions are independent. When a step is large (N * H at least
_THREAD_MIN_STATE), this process may run on more than one CPU
(numcore.cpu_count) and numpy's bundled OpenBLAS, which the pipeline holds
at one thread (numcore.one_blas_thread), is found, the reverse direction
runs on a worker thread of numcore.run_parts in both passes while the
calling thread runs the forward one; numpy releases the GIL inside each
array operation. With another BLAS, whose pool cannot be pinned, they run
in sequence, since each thread's products could start BLAS threads of
their own. Both paths do the same arithmetic, so their results are
bit-identical. _THREAD_MIN_STATE is the measured crossover of one forward
plus reverse pass at T=30, W=9 on 2 vCPUs and one BLAS thread: at N=400 two
threads were 1-4% slower at H=12 and 11-16% faster at H=16 (README).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DegenerateInput, NonFiniteInput, ShapeMismatch

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
        if self.seed < 0:
            raise DegenerateInput("EncoderConfig.seed must be >= 0")


# Gate blocks of the fused weights, as indices into the (input, forget, cell,
# output) order of the model file: the three sigmoid gates come first so one
# slice covers them, then the cell candidate.
_GATE_ORDER = (3, 0, 1, 2)  # output, input, forget, cell


def _shapes(cfg: EncoderConfig):
    """Shapes of the parts of the flat vector: each direction's fused matrix,
    then attn_w, attn_b, proj_w and proj_b."""
    fused = (cfg.input_width + 1 + cfg.hidden, 4 * cfg.hidden)
    d2 = 2 * cfg.hidden
    return [fused, fused, (d2, 1), (1, 1), (d2, cfg.latent), (1, cfg.latent)]


def param_count(cfg: EncoderConfig) -> int:
    return sum(r * c for r, c in _shapes(cfg))


def _parts(cfg: EncoderConfig, flat: np.ndarray):
    """Views of a flat vector, one per entry of _shapes."""
    parts, j = [], 0
    for r, c in _shapes(cfg):
        parts.append(flat[j:j + r * c].reshape(r, c))
        j += r * c
    return parts


def _file_order(cfg: EncoderConfig) -> np.ndarray:
    """Positions in the flat vector of the model file's values, in file order.

    The file stores each direction (forward, then reversed time) as four
    (W+H) x H gate weights, inputs above recurrence, and then four 1 x H gate
    biases, both in (input, forget, cell, output) order; attn_w, attn_b,
    proj_w and proj_b follow as they are.
    """
    width, d_h = cfg.input_width, cfg.hidden
    parts = _parts(cfg, np.arange(param_count(cfg)))
    order = []
    for fused in parts[:2]:  # per direction, its gate blocks in file order
        gates = [fused[:, p * d_h:(p + 1) * d_h] for p in map(_GATE_ORDER.index, range(4))]
        order += [np.delete(g, width, axis=0) for g in gates] + [g[width] for g in gates]
    return np.concatenate([a.ravel() for a in order + parts[2:]])


@dataclass
class EncoderParams:
    """The encoder's parameters as one flat vector in the layout its kernels
    use, with named views into it.

    Each direction (forward, then reversed time) is one (W+1+H) x 4H matrix:
    rows are the input weights, the bias, which meets a constant-one input,
    and the recurrent weights; column blocks are the gates in _GATE_ORDER.
    attn_w (2H x 1), attn_b (1 x 1), proj_w (2H x D) and proj_b (1 x D)
    follow. Writing to a view writes to ``flat``.
    """

    config: EncoderConfig
    flat: np.ndarray

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        expected = param_count(self.config)
        if self.flat.shape != (expected,):
            raise ShapeMismatch(f"expected {expected} parameters, got {self.flat.size}")
        parts = _parts(self.config, self.flat)
        self.directions = tuple(parts[:2])
        self.attn_w, self.attn_b, self.proj_w, self.proj_b = parts[2:]

    @classmethod
    def from_file_order(cls, cfg: EncoderConfig, values) -> "EncoderParams":
        """Parameters from the model file's per-gate order (see _file_order)."""
        values = cls(cfg, values).flat  # checks the length
        flat = np.empty_like(values)
        flat[_file_order(cfg)] = values
        return cls(cfg, flat)

    def in_file_order(self) -> np.ndarray:
        return self.flat[_file_order(self.config)]


def init_params(cfg: EncoderConfig) -> EncoderParams:
    """Seeded uniform(-1/sqrt(d_h), 1/sqrt(d_h)) weights; zero biases except
    the forget gates, which start at 1.0 to keep early memory open.

    Draws follow the file order (forward cell gates i/f/c/o, backward cell,
    attention, projection) so a seed reproduces parameters bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    bound = 1.0 / np.sqrt(cfg.hidden)
    d_h, win = cfg.hidden, cfg.input_width + cfg.hidden
    biases = np.zeros((4, d_h))
    biases[1] = 1.0  # forget gate
    cells = [np.concatenate([rng.uniform(-bound, bound, 4 * win * d_h), biases.ravel()])
             for _ in range(2)]
    attn_w = rng.uniform(-bound, bound, 2 * d_h)
    proj_w = rng.uniform(-bound, bound, 2 * d_h * cfg.latent)
    return EncoderParams.from_file_order(
        cfg, np.concatenate(cells + [attn_w, [0.0], proj_w, np.zeros(cfg.latent)])
    )


@dataclass
class EncoderOutput:
    Z: np.ndarray  # N x D latents
    alpha: np.ndarray  # N x T attention weights, rows sum to 1
    latent: nc.Node | None = None  # the encoder block, on a tape
    params: nc.Node | None = None  # leaf holding params.flat; its grad after backward()


# Halving the sigmoid gates' pre-activations lets one tanh evaluate all four:
# sigmoid(x) = 0.5 * (1 + tanh(x / 2)).
_GATE_SCALE = (0.5, 0.5, 0.5, 1.0)
# Rows times hidden units (N * H) from which the two directions run on two
# threads (see the module docstring). Below it the GIL hand-offs between
# many short numpy calls cost as much as the overlap saves.
_THREAD_MIN_STATE = 6_400


def _lstm_pass(x1, w, states, reverse, keep):
    """Run one LSTM direction; write its hidden states into ``states``.

    ``x1`` is (W+1) x T x N, the inputs with a row of ones, ``w`` the
    direction's fused (W+1+H) x 4H weights and ``states`` H x T x N. Each
    step writes its input projection plus bias, one product with the first
    W+1 rows of ``w``, into its 4H x N gate block and adds w_h^T h, w_h
    being the last H rows. With ``keep`` it returns the gate activations and
    the cell states (T x 4H x N and T x H x N), indexed by original time
    whichever way the pass runs; without, every step reuses one gate block
    and one cell block, and it returns None. Either way tanh(c) goes to one
    H x N buffer that the next step overwrites.
    """
    width1, t_len, n = x1.shape
    d_h = w.shape[1] // 4
    scale = np.repeat(_GATE_SCALE, d_h)[:, None]
    w_x = w[:width1].T * scale  # 4H x (W+1)
    w_h = w[width1:].T * scale  # 4H x H
    slots = t_len if keep else 1
    gates = np.empty((slots, 4 * d_h, n))
    cells = np.empty((slots, d_h, n))
    tanh_c = np.empty((d_h, n))
    recur = np.empty((4 * d_h, n))
    c = np.zeros((d_h, n))
    h = None
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        s = t if keep else 0
        g = np.matmul(w_x, x1[:, t], out=gates[s])
        if h is not None:
            g += np.matmul(w_h, h, out=recur)
        np.tanh(g, out=g)
        sig = g[: 3 * d_h]
        sig *= 0.5
        sig += 0.5
        o, i, f, cand = (g[k * d_h:(k + 1) * d_h] for k in range(4))
        c = np.multiply(f, c, out=cells[s])
        c += i * cand
        np.tanh(c, out=tanh_c)
        h = np.multiply(o, tanh_c, out=states[:, t])
    return (gates, cells) if keep else None


def _lstm_backprop(d_ctx, att, w_att, d_scores, x1, states, run, w, out, reverse):
    """Backpropagation through time for one _lstm_pass direction; writes the
    gradient of its fused weights ``w`` into ``out``.

    The hidden state at step t reaches the output through the context, with
    adjoint ``d_ctx * att[t]``, and through its score, with adjoint
    ``w_att * d_scores[t]`` (``d_ctx`` and ``w_att`` are this direction's
    H x N and H x 1 halves; ``att`` and ``d_scores`` are T x N). ``run`` is
    what _lstm_pass kept, the gates and the cells. Each step recomputes
    tanh(c) from its stored cell into a reused H x N buffer, the same np.tanh
    on the same block as the forward pass, then computes its gate slopes and
    the adjoint of its gate pre-activations into reused 4H x N buffers; while
    that adjoint is in cache, the step's inputs and ones row times it go to
    the input and bias rows of ``out``, the state it read times it to the
    recurrent rows, and the unscaled recurrent weights times it give the
    adjoint of that state.
    """
    gates, cells = run
    t_len, four_h, n = gates.shape
    width1, d_h = x1.shape[0], four_h // 4
    w_h = w[width1:]  # H x 4H
    g4 = gates.reshape(t_len, 4, d_h, n)
    dp = np.empty((four_h, n))
    dp4 = dp.reshape(4, d_h, n)
    slope = np.empty((4, d_h, n))
    step = np.empty_like(out)
    buf = np.empty((d_h, n))
    tc = np.empty((d_h, n))
    no_cell = np.zeros((d_h, n))
    dh = np.zeros((d_h, n))
    dc = np.zeros((d_h, n))
    for t in range(t_len) if reverse else range(t_len - 1, -1, -1):
        prev = t + 1 if reverse else t - 1
        first = not 0 <= prev < t_len  # the direction's first step read no state
        c_prev = no_cell if first else cells[prev]
        g = g4[t]
        o, i, f, cand = g
        np.tanh(cells[t], out=tc)
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
        np.multiply(slope[0], dh, out=dp4[0])
        np.multiply(slope[1:], dc, out=dp4[1:])
        dc *= f
        out[:width1] += np.matmul(x1[:, t], dp.T, out=step[:width1])
        if not first:
            out[width1:] += np.matmul(states[:, prev], dp.T, out=step[width1:])
            np.matmul(w_h, dp, out=dh)


def _thread_directions(n: int, d_h: int) -> bool:
    """Whether the two directions run on two threads: for a large step, on more
    than one CPU, and with numpy's bundled OpenBLAS, whose pool can be pinned."""
    return (n * d_h >= _THREAD_MIN_STATE and nc.cpu_count() > 1
            and nc.openblas_threads() is not None)


def _both_directions(threaded: bool, run):
    """[run(0), run(1)]: the reverse direction on a worker thread when
    ``threaded``, else one after the other."""
    return nc.run_parts(run, 2) if threaded else [run(0), run(1)]


def forward(params: EncoderParams, batch: np.ndarray, tape: nc.Tape | None = None) -> EncoderOutput:
    """Encode an N x T x W batch to an N x D latent matrix, on ``tape`` if
    one is given.

    Per step t the bidirectional state concatenates the forward pass state at
    t with the backward pass (reversed-sequence) state at the same original
    index. Attention scores are a single linear layer over that state.

    On a tape the whole encoder is one fused block whose adjoint is
    hand-written backpropagation through time (gate equations of Hochreiter
    & Schmidhuber 1997) behind the attention and projection layers. Its
    reverse pass writes the gradient of every parameter into one vector laid
    out like ``params.flat``, the value of the block's one leaf. Without a
    tape the same arithmetic gives the same latents and attention, and no
    gate or cell array outlives its step. A large batch threads the two
    directions, assuming the caller holds numcore.one_blas_thread.
    """
    cfg = params.config
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1] != cfg.seq_len or batch.shape[2] != cfg.input_width:
        raise ShapeMismatch(
            f"batch shape {batch.shape} does not match (N, {cfg.seq_len}, {cfg.input_width})"
        )
    nc.require_finite(batch, "encoder batch")
    n, width, d_h = batch.shape[0], cfg.input_width, cfg.hidden

    x1 = np.empty((width + 1, cfg.seq_len, n))  # the inputs and a row of ones
    x1[:width] = batch.transpose(2, 1, 0)
    x1[width] = 1.0
    hs = np.empty((2 * d_h, cfg.seq_len, n))  # both directions' states
    halves = (hs[:d_h], hs[d_h:])
    threaded = _thread_directions(n, d_h)
    runs = _both_directions(threaded, lambda k: _lstm_pass(
        x1, params.directions[k], halves[k], reverse=k == 1, keep=tape is not None))

    # The score bias attn_b shifts every logit of an event by the same amount,
    # which the softmax cancels exactly; leaving it out of the sum keeps the
    # output bit-independent of it, and its gradient is exactly zero.
    scores = np.einsum("ktn,k->tn", hs, params.attn_w[:, 0])  # T x N
    e = np.exp(scores - scores.max(axis=0))
    att = e / e.sum(axis=0)  # T x N, each column a distribution over time
    if not (np.all(att >= 0.0) and np.max(np.abs(att.sum(axis=0) - 1.0)) < 1e-10):
        raise NonFiniteInput("attention weights are not a distribution over time steps")
    context = np.einsum("ktn,tn->nk", hs, att)
    latent = np.tanh(context @ params.proj_w + params.proj_b)
    if tape is None:
        return EncoderOutput(latent, att.T)

    def vjp(g):
        grad = EncoderParams(cfg, np.zeros(params.flat.size))
        d_u = g * (1.0 - latent * latent)
        d_ctx = params.proj_w @ d_u.T  # 2H x N
        d_att = np.einsum("ktn,kn->tn", hs, d_ctx)
        d_scores = att * (d_att - (d_att * att).sum(axis=0))

        def direction_grads(k):
            half = slice(k * d_h, (k + 1) * d_h)
            _lstm_backprop(d_ctx[half], att, params.attn_w[half], d_scores, x1, halves[k],
                           runs[k], params.directions[k], grad.directions[k], reverse=k == 1)

        _both_directions(threaded, direction_grads)
        grad.attn_w[:, 0] = np.einsum("ktn,tn->k", hs, d_scores)
        grad.proj_w[...] = context.T @ d_u
        grad.proj_b[0] = d_u.sum(axis=0)
        return (grad.flat.reshape(-1, 1),)

    leaf = tape.leaf(params.flat)
    return EncoderOutput(latent, att.T, nc.custom(tape, latent, (leaf,), vjp), leaf)
