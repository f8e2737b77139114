"""Finite-difference validation harness for every fused block: the encoder's
parameters, the kernel block's log-hyperparameters and inputs, the marginal
likelihood block's hyperparameters (with noise and mean) and inputs, and the
linear MSE head. Small fixed dimensions keep the whole suite well under a
minute."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import gp, pipeline
from . import numcore as nc

TOLERANCE = 1e-4


@dataclass
class GradCase:
    name: str
    max_rel_error: float
    n_coords: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def _weighted_sum(tape: nc.Tape, node: nc.Node, w: np.ndarray) -> nc.Node:
    """sum(node * w) for a fixed w: a probe that seeds a general adjoint."""
    return nc.Node(tape, np.array([[np.sum(node.value * w)]]), (node,), lambda g: (g[0, 0] * w,))


def _encoder_param_case(seed: int) -> GradCase:
    cfg = enc.EncoderConfig(input_width=3, seq_len=5, hidden=3, latent=2, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    batch = rng.normal(size=(4, cfg.seq_len, cfg.input_width))
    w = rng.normal(size=(4, cfg.latent))
    x0 = enc.init_params(cfg).flatten()

    def f(vec):
        tape = nc.Tape()
        out = enc.forward(enc.EncoderParams.from_flat(cfg, vec), batch, tape)
        loss = _weighted_sum(tape, out.latent, w)
        nc.backward(tape, loss)
        return loss.value.item(), out.params.grad.ravel()

    # The attention score bias cancels in the softmax: its analytic and
    # numeric gradients are both exactly zero, so it needs no special case.
    err = nc.finite_diff_check(f, x0, step=1e-5)
    return GradCase(f"encoder-params[{seed}]", err, x0.size)


def _gp_points(family: str, seed: int):
    rng = np.random.default_rng(3000 + seed)
    # sin over a Euclidean distance is only PSD in 1-D, and the NMLL factors K
    d = 1 if family in ("periodic", "composite") else 3
    x = rng.normal(size=(8, d))
    y = rng.normal(size=8)
    state = gp.init_state(x, y, family)
    return x, y, state, rng.normal(size=(8, 8))


def _kernel_cases(family: str, seed: int) -> list:
    """sum(G * K) for a fixed G, by the log-hyperparameters and by X."""
    x, _, state, g = _gp_points(family, seed)
    names = state.kernel.hyper_names()
    theta0 = np.array([getattr(state.kernel, nm) for nm in names])

    def f_hypers(vec):
        spec = gp.KernelSpec(family=family, **dict(zip(names, vec)))
        k, vjp = gp.kernel_block(spec, x)
        return float(np.sum(g * k)), vjp(g)[0]

    def f_inputs(vec):
        k, vjp = gp.kernel_block(state.kernel, vec.reshape(x.shape))
        return float(np.sum(g * k)), vjp(g)[1].ravel()

    return [
        GradCase(f"kernel-hypers[{family},{seed}]",
                 nc.finite_diff_check(f_hypers, theta0, step=1e-5), theta0.size),
        GradCase(f"kernel-inputs[{family},{seed}]",
                 nc.finite_diff_check(f_inputs, x.ravel(), step=1e-5), x.size),
    ]


def _nmll_cases(family: str, seed: int) -> list:
    x, y, state, _ = _gp_points(family, seed)

    def f_hypers(vec):
        tape = nc.Tape()
        loss, hypers = gp.nmll_node(tape, state.with_hypers_flat(vec), None, y, fixed=x)
        nc.backward(tape, loss)
        return loss.value.item(), hypers.grad.ravel()

    def f_inputs(vec):
        tape = nc.Tape()
        latent = tape.leaf(vec.reshape(x.shape))
        loss, _ = gp.nmll_node(tape, state, latent, y)
        nc.backward(tape, loss)
        return loss.value.item(), latent.grad.ravel()

    h0 = state.hypers_flat()
    return [
        GradCase(f"nmll-hypers[{family},{seed}]",
                 nc.finite_diff_check(f_hypers, h0, step=1e-5), h0.size),
        GradCase(f"nmll-inputs[{family},{seed}]",
                 nc.finite_diff_check(f_inputs, x.ravel(), step=1e-5), x.size),
    ]


def _mse_head_case(seed: int) -> GradCase:
    rng = np.random.default_rng(4000 + seed)
    n, d = 6, 3
    y = rng.normal(size=n)
    x0 = rng.normal(size=n * d + d + 1)  # latents, then the head [w ; b]

    def f(vec):
        tape = nc.Tape()
        latent = tape.leaf(vec[: n * d].reshape(n, d))
        loss, head = pipeline.mse_head_node(tape, latent, vec[n * d:], y)
        nc.backward(tape, loss)
        return loss.value.item(), np.concatenate([latent.grad.ravel(), head.grad.ravel()])

    return GradCase(f"mse-head[{seed}]", nc.finite_diff_check(f, x0, step=1e-5), x0.size)


def run_all(n_seeds: int = 12) -> list:
    """The full suite: encoder parameters, the kernel and marginal-likelihood
    blocks for every kernel family, and the MSE head. Returns one GradCase
    per check; > 100 cases at the default seed count."""
    cases = [_encoder_param_case(s) for s in range(n_seeds)]
    for family in gp.FAMILIES:
        for s in range(6):
            cases += _kernel_cases(family, s) + _nmll_cases(family, s)
    cases += [_mse_head_case(s) for s in range(3)]
    return cases
