"""Finite-difference validation harness for every gradient the package
defines: the encoder block's parameters, through a reverse pass on its tape
seeded with fixed probe weights; the kernel block's log-hyperparameters and
inputs; the marginal likelihood's hyperparameters (with noise and mean) and
inputs; and the linear MSE head, whose value-and-gradient functions are
called directly. Small fixed dimensions keep the whole suite well under a
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


def _encoder_param_case(seed: int) -> GradCase:
    cfg = enc.EncoderConfig(input_width=3, seq_len=5, hidden=3, latent=2, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    batch = rng.normal(size=(4, cfg.seq_len, cfg.input_width))
    w = rng.normal(size=(4, cfg.latent))
    x0 = enc.init_params(cfg).flat

    def f(vec):
        """sum(Z * w) for the fixed probe weights w, which seed the reverse pass."""
        tape = nc.Tape()
        out = enc.forward(enc.EncoderParams(cfg, vec), batch, tape)
        nc.backward(tape, out.latent, w)
        return float(np.sum(out.Z * w)), out.params.grad.ravel()

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
        value, d_hypers, _ = gp.nmll_node(state.with_hypers_flat(vec), x, y)
        return value, d_hypers

    def f_inputs(vec):
        value, _, d_x = gp.nmll_node(state, vec.reshape(x.shape), y, x.shape[1])
        return value, d_x.ravel()

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
        value, d_head, d_z = pipeline.mse_head(vec[: n * d].reshape(n, d), vec[n * d:], y)
        return value, np.concatenate([d_z.ravel(), d_head])

    return GradCase(f"mse-head[{seed}]", nc.finite_diff_check(f, x0, step=1e-5), x0.size)


@nc.one_blas_thread()
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
