"""Encoder checks: shapes, determinism, attention behavior, architecture
symmetry, gradients against finite differences, the fused block against
the per-gate oracle in encoder_reference.py on both of its thread paths,
the tapeless forward against the taped one, the taped block's outputs
pinned byte for byte, and the memory each keeps."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
import tape_reference as tr
from blas_core import pinned
from encoder_reference import reference_forward
from hypothesis import given, settings
from hypothesis import strategies as st

from mvelma import encoder as enc
from mvelma import numcore as nc
from mvelma import pipeline
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
        assert p.flat.size == p.in_file_order().size == 40597

    def test_deterministic_by_seed(self):
        a = enc.init_params(tiny_cfg()).flat
        b = enc.init_params(tiny_cfg()).flat
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = enc.init_params(tiny_cfg(seed=0)).flat
        b = enc.init_params(tiny_cfg(seed=1)).flat
        assert np.any(a != b)

    def test_weight_bounds_and_biases(self):
        cfg = tiny_cfg()
        p = enc.init_params(cfg)
        bound = 1.0 / np.sqrt(cfg.hidden)
        forget = enc._GATE_ORDER.index(1)  # column block of the forget gate
        for fused in p.directions:
            assert fused.shape == (cfg.input_width + 1 + cfg.hidden, 4 * cfg.hidden)
            weights = np.delete(fused, cfg.input_width, axis=0)
            assert np.all(np.abs(weights) <= bound)
            for k, bias in enumerate(np.split(fused[cfg.input_width], 4)):
                assert np.all(bias == (1.0 if k == forget else 0.0))
        assert np.all(p.attn_b == 0.0) and np.all(p.proj_b == 0.0)

    def test_flatten_round_trip(self):
        """The model file's per-gate order maps to the stored layout and back,
        and the named parts are views of the flat vector."""
        cfg = tiny_cfg()
        p = enc.init_params(cfg)
        file_values = p.in_file_order()
        q = enc.EncoderParams.from_file_order(cfg, file_values)
        assert np.array_equal(q.flat, p.flat)
        assert np.array_equal(q.in_file_order(), file_values)
        # in file order the backward cell's input-gate weights come right
        # after the forward cell's 4 weight and 4 bias blocks
        win, d_h = cfg.input_width + cfg.hidden, cfg.hidden
        start = 4 * win * d_h + 4 * d_h
        w_input = file_values[start:start + win * d_h].reshape(win, d_h)
        pos = enc._GATE_ORDER.index(0)  # column block of the input gate
        block = p.directions[1][:, pos * d_h:(pos + 1) * d_h]
        assert np.array_equal(np.delete(block, cfg.input_width, axis=0), w_input)
        q.proj_b[0, 0] = 5.0
        assert q.flat[-cfg.latent] == 5.0

    def test_from_flat_wrong_size(self):
        with pytest.raises(ShapeMismatch):
            enc.EncoderParams(tiny_cfg(), np.zeros(3))
        with pytest.raises(ShapeMismatch):
            enc.EncoderParams.from_file_order(tiny_cfg(), np.zeros(3))

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
        params = enc.EncoderParams(cfg, np.zeros(enc.param_count(cfg)))
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
        swapped = enc.EncoderParams(cfg, p.flat.copy())
        swapped.directions[0][...] = p.directions[1]
        swapped.directions[1][...] = p.directions[0]
        swapped.attn_w[...] = np.vstack([p.attn_w[d_h:], p.attn_w[:d_h]])
        swapped.proj_w[...] = np.vstack([p.proj_w[d_h:], p.proj_w[:d_h]])
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
            params = enc.EncoderParams(cfg, flat)
            tape = nc.Tape()
            out = enc.forward(params, batch, tape)
            loss = tr.sum_all(tr.mul(out.latent, w))
            nc.backward(tape, loss, 1.0)
            return float(loss.value[0, 0]), out.params.grad.ravel()

        x0 = enc.init_params(cfg).flat
        assert nc.finite_diff_check(f, x0, 1e-5) < 1e-4


@st.composite
def encoder_problems(draw):
    cfg = enc.EncoderConfig(
        input_width=draw(st.integers(1, 5)),
        seq_len=draw(st.integers(1, 8)),
        hidden=draw(st.integers(1, 16)),
        latent=draw(st.integers(1, 4)),
    )
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    params = enc.EncoderParams(cfg, rng.uniform(-1.0, 1.0, enc.param_count(cfg)))
    batch = 2.0 * rng.standard_normal((n, cfg.seq_len, cfg.input_width))
    return params, batch, rng.standard_normal((n, cfg.latent))


def _encode(params, batch, w):
    """Latents, attention and the gradient of sum(Z * w) in the model file's
    order, which the reference uses."""
    tape = nc.Tape()
    out = enc.forward(params, batch, tape)
    nc.backward(tape, tr.sum_all(tr.mul(out.latent, w)), 1.0)
    grad = enc.EncoderParams(params.config, out.params.grad.ravel())
    return out.Z, out.alpha, grad.in_file_order()


def _assert_rel_close(actual, expected, rtol=1e-12):
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=rtol * np.abs(expected).max())


class TestReferenceOracle:
    """The fused block sums in another order than the per-gate reference, so
    it must match to a relative 1e-12, not bit for bit. Its threaded and
    sequential paths do the same arithmetic and must match exactly."""

    @pytest.mark.determinism
    @settings(max_examples=60, deadline=None)
    @given(encoder_problems())
    def test_matches_reference_on_both_paths(self, problem):
        params, batch, w = problem
        latent, attention, vjp = reference_forward(params, batch)
        pools = []

        class CountingPool(nc.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp, nc.one_blas_thread():
            mp.setattr(nc, "ThreadPoolExecutor", CountingPool)
            mp.setattr(enc, "_THREAD_MIN_STATE", batch.shape[0] * params.config.hidden + 1)
            sequential = _encode(params, batch, w)
            assert not pools
            mp.setattr(enc, "_THREAD_MIN_STATE", 0)
            threaded = _encode(params, batch, w)
            if enc._thread_directions(1, 1):  # more than one CPU, and the bundled OpenBLAS
                assert len(pools) == 2  # forward pass and reverse pass

        z, alpha, grad = sequential
        _assert_rel_close(z, latent)
        _assert_rel_close(alpha, attention)
        _assert_rel_close(grad, vjp(w))
        for a, b in zip(sequential, threaded):
            assert np.array_equal(a, b)

    def test_thread_rule_separates_the_benchmark_shapes(self):
        # the criterion-7 shape (400 x 12) stays on one thread; the CLI
        # default (400 x 64) uses two wherever two CPUs are available and
        # numpy's bundled OpenBLAS is found
        assert not enc._thread_directions(400, 12)
        assert enc._thread_directions(400, 64) == enc._thread_directions(10**6, 10**6)

    @pytest.mark.parametrize("pool", [1, 2, 8, None])
    def test_threads_only_beside_a_one_thread_blas_pool(self, request, monkeypatch, pool):
        # whatever pool size the caller set, the pin holds the bundled
        # OpenBLAS at one thread, so the rule reads no pool size; another
        # BLAS (None), whose pool cannot be pinned, keeps the directions in
        # sequence, as does a single CPU
        if pool is None:
            monkeypatch.setattr(nc, "openblas_threads", lambda: None)
        else:
            get, put = request.getfixturevalue("blas_pool")
            put(pool)
        with nc.one_blas_thread():
            if pool is not None:
                assert get() == 1
            for cpus in (1, 2):
                monkeypatch.setattr(nc, "cpu_count", lambda: cpus)
                assert enc._thread_directions(400, 64) == (pool is not None and cpus == 2)

    def test_reads_the_blas_pool_size(self):
        # the count is read on every call: the caller's outside the pin,
        # one thread inside it
        calls = nc.openblas_threads()
        assert calls is None or calls[0]() >= 1
        if calls is not None and os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            assert calls[0]() == 1
        if calls is not None:
            with nc.one_blas_thread():
                assert calls[0]() == 1


class TestTapelessForward:
    """Without a tape the encoder does the taped forward's arithmetic step by
    step into buffers of one step, so its latents and attention are the same
    bits, and it keeps nothing for backpropagation."""

    @settings(max_examples=60, deadline=None)
    @given(encoder_problems())
    def test_matches_the_taped_forward_on_both_paths(self, problem):
        params, batch, _ = problem
        for threaded in (False, True):
            with pytest.MonkeyPatch.context() as mp, nc.one_blas_thread():
                limit = 0 if threaded else batch.shape[0] * params.config.hidden + 1
                mp.setattr(enc, "_THREAD_MIN_STATE", limit)
                taped = enc.forward(params, batch, nc.Tape())
                bare = enc.forward(params, batch)
            assert bare.latent is None and bare.params is None
            assert np.array_equal(bare.Z, taped.Z)
            assert np.array_equal(bare.alpha, taped.alpha)
            assert np.array_equal(pipeline._latent(params, batch), taped.Z)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _memory_problem(n, hidden=64):
    cfg = enc.EncoderConfig(input_width=9, seq_len=30, hidden=hidden, latent=20, seed=SEED)
    rng = np.random.default_rng(SEED + 8)
    return enc.init_params(cfg), rng.standard_normal((n, 30, 9)), rng.standard_normal((n, 20))


def taped_digest(n, hidden):
    """SHA-256 of the taped block's latents and its parameter gradient for the
    adjoint w of _memory_problem, under one BLAS thread as in training."""
    params, batch, w = _memory_problem(n, hidden)
    with nc.one_blas_thread():
        tape = nc.Tape()
        out = enc.forward(params, batch, tape)
        nc.backward(tape, out.latent, w)
    return hashlib.sha256(out.Z.tobytes() + out.params.grad.tobytes()).hexdigest()


# The taped block's outputs, pinned byte for byte: BLAS core -> (N, H) ->
# taped_digest. The reverse pass recomputes tanh(c) from the stored cells,
# with the same np.tanh on the same block as the forward pass, so a change to
# what the tape keeps must leave these as they are.
TAPED_DIGESTS = {
    "SkylakeX": {
        (400, 64): "b48ac12245fa5b929b81a13feb39743189afed8e16fca40350d7f9e33ad07565",
        (400, 12): "8f1cbe6c42e15f1056f529e29d624a6bf88494678792387ffe5ab99dc957c0bb",
        (37, 5): "29677661763741817b301b0822e49bc656edb401f4f40bcc5169fe01070b793d",
    },
    "Haswell": {
        (400, 64): "e0777ea9d1101f09f2348d93e72a8481c640ae0d85d300fe74ff02ac4f0faf51",
        (400, 12): "d74544012095edb907f6b7d859d21b6510661572e15210f1afb17867ea47c051",
        (37, 5): "dcc9dad81cd0852465a2945774720d9159061b799b2ebd63a459e0748f402c68",
    },
}


@pytest.mark.determinism
class TestTapedDigests:
    @pytest.mark.parametrize("shape", list(TAPED_DIGESTS["SkylakeX"]), ids=str)
    def test_latents_and_gradient_pinned_byte_for_byte(self, shape):
        assert taped_digest(*shape) == pinned(TAPED_DIGESTS)[shape]


class TestMemory:
    """Beyond the states the attention reads (2H x T x N), the tapeless
    forward keeps one step per direction, and the taped block keeps the
    gates and cells of every step but not their tanh, and no adjoint of more
    than one step."""

    def test_tapeless_forward_keeps_no_time_long_gate_array(self):
        # at N=1,500 the states take 46 MB and one direction's T x 4H x N
        # gates alone 92 MB; one direction's T x H x N cells 23 MB
        params, batch, _ = _memory_problem(1_500)
        assert _peak_mb(lambda: enc.forward(params, batch)) < 80.0

    def test_taped_block_keeps_no_time_long_adjoint(self):
        # at N=400 the stored gates, cells and states take 74 MB (the tape
        # 61 MB of it) and the whole step peaks at 78 MB; a stored tanh(c)
        # per direction would add 6 MB each, and a T x 4H x N adjoint per
        # direction 25 MB each
        params, batch, w = _memory_problem(400)

        def forward_and_backward():
            tape = nc.Tape()
            out = enc.forward(params, batch, tape)
            nc.backward(tape, tr.sum_all(tr.mul(out.latent, w)), 1.0)

        assert _peak_mb(forward_and_backward) < 84.0
