"""The per-gate encoder that `mvelma.encoder` must reproduce.

`reference_forward` runs each LSTM direction with one input-projection
product per step and gate, precomputes the gate slopes of every step as
T x N x H arrays, and forms the weight gradient as T x 4 per-step products
summed over time. It is the plain-number oracle of the fused encoder block:
same parameters, same maths, with the summation order of the straightforward
implementation. It reads the parameters, and returns their gradient, in the
model file's per-gate order, so it also checks the encoder's mapping between
that order and its stored layout.
"""

import numpy as np

# Gate blocks in the recurrence, as indices into the (input, forget, cell,
# output) order of the model file: the sigmoid gates first, then the candidate.
_GATE_ORDER = (3, 0, 1, 2)  # output, input, forget, cell
# sigmoid(x) = 0.5 * (1 + tanh(x / 2)) lets one tanh evaluate all four gates
_GATE_SCALE = np.array([0.5, 0.5, 0.5, 1.0]).reshape(4, 1, 1)


def _lstm_pass(xp, w_h, reverse):
    """One direction over T x 4 x N x H scaled input projections; returns
    gates, cells, tanh(cells) and hidden states indexed by original time."""
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


def _shift_prev(a, reverse):
    """Per-step previous state in processing order (zeros before the first step)."""
    prev = np.zeros_like(a)
    if reverse:
        prev[:-1] = a[1:]
    else:
        prev[1:] = a[:-1]
    return prev


def _lstm_backprop(d_states, gates, cells, tanh_cells, w_h, reverse):
    """BPTT for one direction: hidden-state adjoints (T x N x H) to gate
    pre-activation adjoints (T x 4 x N x H); ``w_h`` is unscaled."""
    t_len, _, n, d_h = gates.shape
    o, i, f, g = (gates[:, k] for k in range(4))
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


def _file_arrays(cfg, values):
    """The 20 per-gate arrays of a model-file parameter vector: per direction
    four (W+H) x H gate weights and four 1 x H gate biases, in (input,
    forget, cell, output) order, then attn_w, attn_b, proj_w and proj_b."""
    win, d_h = cfg.input_width + cfg.hidden, cfg.hidden
    cell = [(win, d_h)] * 4 + [(1, d_h)] * 4
    shapes = cell + cell + [(2 * d_h, 1), (1, 1), (2 * d_h, cfg.latent), (1, cfg.latent)]
    arrays, j = [], 0
    for r, c in shapes:
        arrays.append(values[j:j + r * c].reshape(r, c))
        j += r * c
    assert j == values.size
    return arrays


def reference_forward(params, batch):
    """Encode an N x T x W batch; returns (latent, attention, vjp), where
    vjp(g) maps the N x D latent adjoint to the flat gradient in the model
    file's order."""
    cfg = params.config
    batch = np.asarray(batch, dtype=np.float64)
    n, width, d_h = batch.shape[0], cfg.input_width, cfg.hidden
    arrays = _file_arrays(cfg, params.in_file_order())
    x_steps = np.ascontiguousarray(batch.transpose(1, 0, 2))  # T x N x W
    attn_w, proj_w, proj_b = arrays[16], arrays[18], arrays[19]

    directions = []
    for cell, reverse in ((arrays[0:8], False), (arrays[8:16], True)):
        w = np.stack([cell[k] for k in _GATE_ORDER])  # 4 x (W+H) x H
        b = np.stack([cell[4 + k] for k in _GATE_ORDER])  # 4 x 1 x H
        w_x, w_h = w[:, :width], w[:, width:]
        xp = np.matmul(x_steps[:, None], w_x * _GATE_SCALE) + b * _GATE_SCALE
        directions.append((w_h, reverse, _lstm_pass(xp, w_h * _GATE_SCALE, reverse)))

    hs = np.concatenate([run[3] for _, _, run in directions], axis=2)  # T x N x 2H
    scores = np.einsum("tnk,k->nt", hs, attn_w[:, 0])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attention = e / e.sum(axis=1, keepdims=True)
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
            d_w = np.matmul(xh.transpose(0, 2, 1)[:, None], d_pre).sum(axis=0)
            d_b = np.matmul(ones_row, d_pre).sum(axis=0)
            for pos, gate in enumerate(_GATE_ORDER):
                grads[8 * k + gate] = d_w[pos]
                grads[8 * k + 4 + gate] = d_b[pos]
        grads += [
            np.einsum("tnk,nt->k", hs, d_scores).reshape(-1, 1),
            np.zeros((1, 1)),
            context.T @ d_u,
            d_u.sum(axis=0, keepdims=True),
        ]
        return np.concatenate([a.ravel() for a in grads])

    return latent, attention, vjp
