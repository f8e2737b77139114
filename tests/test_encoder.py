"""Encoder checks: shapes, determinism, attention behavior, architecture
symmetry, and gradients against finite differences."""

import numpy as np
import pytest
import tape_reference as tr

from mvelma import encoder as enc
from mvelma import numcore as nc
from mvelma.errors import NonFiniteInput, ShapeMismatch

SEED = 7151


def tiny_cfg(**kw):
    base = dict(input_width=3, seq_len=5, hidden=4, latent=2, seed=SEED)
    base.update(kw)
    return enc.EncoderConfig(**base)


class TestInit:
    def test_param_count_default_config(self):
        cfg = enc.EncoderConfig(input_width=9, seq_len=30, hidden=64, latent=20)
        # 2 cells of 4 gates, each (9+64)x64 weights + 64 bias,
        # attention 128+1, projection 128*20+20
        assert enc.param_count(cfg) == 40597
        p = enc.init_params(cfg)
        assert p.flatten().size == 40597

    def test_deterministic_by_seed(self):
        a = enc.init_params(tiny_cfg()).flatten()
        b = enc.init_params(tiny_cfg()).flatten()
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = enc.init_params(tiny_cfg(seed=0)).flatten()
        b = enc.init_params(tiny_cfg(seed=1)).flatten()
        assert np.any(a != b)

    def test_weight_bounds_and_biases(self):
        cfg = tiny_cfg()
        p = enc.init_params(cfg)
        bound = 1.0 / np.sqrt(cfg.hidden)
        for cell in (p.forward_cell, p.backward_cell):
            for w in (cell.w_input, cell.w_forget, cell.w_cell, cell.w_output):
                assert np.all(np.abs(w) <= bound)
            assert np.all(cell.b_forget == 1.0)
            for b in (cell.b_input, cell.b_cell, cell.b_output):
                assert np.all(b == 0.0)
        assert np.all(p.attn_b == 0.0) and np.all(p.proj_b == 0.0)

    def test_flatten_round_trip(self):
        cfg = tiny_cfg()
        p = enc.init_params(cfg)
        flat = p.flatten()
        q = enc.EncoderParams.from_flat(cfg, flat)
        assert np.array_equal(q.flatten(), flat)
        assert np.array_equal(q.forward_cell.w_forget, p.forward_cell.w_forget)

    def test_from_flat_wrong_size(self):
        with pytest.raises(ShapeMismatch):
            enc.EncoderParams.from_flat(tiny_cfg(), np.zeros(3))

    def test_invalid_config(self):
        with pytest.raises(ShapeMismatch):
            enc.EncoderConfig(hidden=0)


class TestForward:
    def test_output_shapes(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(SEED)
        batch = rng.standard_normal((6, cfg.seq_len, cfg.input_width))
        out = enc.forward(enc.init_params(cfg), batch, nc.Tape())
        assert out.Z.shape == (6, cfg.latent)
        assert out.alpha.shape == (6, cfg.seq_len)
        assert out.params.value.shape == (enc.param_count(cfg), 1)

    def test_attention_rows_normalized(self):
        cfg = tiny_cfg(seq_len=8)
        rng = np.random.default_rng(SEED + 1)
        batch = 3.0 * rng.standard_normal((5, 8, cfg.input_width))
        out = enc.forward(enc.init_params(cfg), batch, nc.Tape())
        assert np.all(out.alpha >= 0)
        assert np.allclose(out.alpha.sum(axis=1), 1.0, atol=1e-10)

    def test_zero_params_zero_input(self):
        cfg = enc.EncoderConfig(input_width=9, seq_len=30, hidden=8, latent=4)
        params = enc.EncoderParams.from_flat(cfg, np.zeros(enc.param_count(cfg)))
        batch = np.zeros((3, 30, 9))
        out = enc.forward(params, batch, nc.Tape())
        assert np.all(out.Z == 0.0)
        assert np.allclose(out.alpha, 1.0 / 30.0, atol=1e-15)

    def test_single_step_attention_is_one(self):
        cfg = tiny_cfg(seq_len=1)
        rng = np.random.default_rng(SEED + 2)
        batch = rng.standard_normal((4, 1, cfg.input_width))
        out = enc.forward(enc.init_params(cfg), batch, nc.Tape())
        assert np.all(out.alpha == 1.0)

    def test_deterministic_forward(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(SEED + 3)
        batch = rng.standard_normal((4, cfg.seq_len, cfg.input_width))
        p = enc.init_params(cfg)
        z1 = enc.forward(p, batch, nc.Tape()).Z
        z2 = enc.forward(p, batch, nc.Tape()).Z
        assert np.array_equal(z1, z2)

    def test_latent_bounded_by_tanh(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(SEED + 4)
        batch = 50.0 * rng.standard_normal((4, cfg.seq_len, cfg.input_width))
        out = enc.forward(enc.init_params(cfg), batch, nc.Tape())
        assert np.all(np.abs(out.Z) <= 1.0)

    def test_shape_mismatch(self):
        cfg = tiny_cfg()
        p = enc.init_params(cfg)
        with pytest.raises(ShapeMismatch):
            enc.forward(p, np.zeros((2, cfg.seq_len + 1, cfg.input_width)), nc.Tape())
        with pytest.raises(ShapeMismatch):
            enc.forward(p, np.zeros((2, cfg.seq_len)), nc.Tape())

    def test_nonfinite_batch(self):
        cfg = tiny_cfg()
        batch = np.zeros((2, cfg.seq_len, cfg.input_width))
        batch[1, 2, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            enc.forward(enc.init_params(cfg), batch, nc.Tape())


class TestBidirectionality:
    def test_time_reversal_with_cell_swap(self):
        """Reversing time and swapping the two cells (plus the matching halves
        of the attention and projection weights) reproduces the same latents,
        with attention weights reversed in time."""
        cfg = tiny_cfg(seq_len=7)
        rng = np.random.default_rng(SEED + 5)
        batch = rng.standard_normal((5, 7, cfg.input_width))
        p = enc.init_params(cfg)

        d_h = cfg.hidden
        swapped = enc.EncoderParams(
            config=cfg,
            forward_cell=p.backward_cell,
            backward_cell=p.forward_cell,
            attn_w=np.vstack([p.attn_w[d_h:], p.attn_w[:d_h]]),
            attn_b=p.attn_b,
            proj_w=np.vstack([p.proj_w[d_h:], p.proj_w[:d_h]]),
            proj_b=p.proj_b,
        )
        out = enc.forward(p, batch, nc.Tape())
        out_rev = enc.forward(swapped, batch[:, ::-1, :], nc.Tape())
        assert np.allclose(out_rev.Z, out.Z, atol=1e-12)
        assert np.allclose(out_rev.alpha, out.alpha[:, ::-1], atol=1e-12)

    def test_directions_actually_differ(self):
        # sanity: without the swap, time reversal changes the output
        cfg = tiny_cfg(seq_len=7)
        rng = np.random.default_rng(SEED + 6)
        batch = rng.standard_normal((3, 7, cfg.input_width))
        p = enc.init_params(cfg)
        z_fwd = enc.forward(p, batch, nc.Tape()).Z
        z_rev = enc.forward(p, batch[:, ::-1, :], nc.Tape()).Z
        assert not np.allclose(z_fwd, z_rev)


class TestGradients:
    def test_param_gradients_match_finite_differences(self):
        cfg = enc.EncoderConfig(input_width=2, seq_len=3, hidden=3, latent=2, seed=SEED)
        rng = np.random.default_rng(SEED + 7)
        batch = rng.standard_normal((4, 3, 2))
        w = rng.standard_normal((4, 2))  # random linear functional of Z

        def f(flat):
            params = enc.EncoderParams.from_flat(cfg, flat)
            tape = nc.Tape()
            out = enc.forward(params, batch, tape)
            loss = tr.sum_all(tr.mul(out.latent, w))
            nc.backward(tape, loss)
            return float(loss.value[0, 0]), out.params.grad.ravel()

        x0 = enc.init_params(cfg).flatten()
        assert nc.finite_diff_check(f, x0, 1e-5) < 1e-4
