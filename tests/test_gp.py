"""GP checks: kernel values against closed forms and a Bessel-function
oracle, Cholesky posterior against naive dense inversion, marginal
likelihood against hand values and finite differences, its outputs pinned
byte for byte and its memory bounded, and hyperparameter fitting
behavior."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import tape_reference as tr
from blas_core import pinned
from scipy.special import gamma, kv

from mvelma import gp
from mvelma import numcore as nc
from mvelma.errors import DegenerateInput, DimensionMismatch, Divergence
from mvelma.optim import OptimizerConfig

SEED = 90210


def spec_for(family, **kw):
    return gp.KernelSpec(family=family, **kw)


def all_family_specs():
    return [
        spec_for("rbf", log_outputscale=0.3, log_lengthscale=0.2),
        spec_for("matern25", log_outputscale=-0.1, log_lengthscale=0.4),
        spec_for("periodic", log_outputscale=0.2, log_lengthscale=0.1, log_period=0.5),
        spec_for(
            "composite",
            log_outputscale=0.1,
            log_lengthscale=0.3,
            log_period=0.4,
            log_periodic_lengthscale=-0.2,
        ),
    ]


def dims_for(family):
    """Sin-over-Euclidean-norm kernels are unconditionally PSD only in 1-D,
    so tests that must factor K use 1-D inputs for those families."""
    return 1 if family in ("periodic", "composite") else 3


def nmll_value(state, x, y):
    """The negative log marginal likelihood at (x, y) as nmll_node computes it."""
    return gp.nmll_node(state, nc.as_matrix(x), y)[0]


def matern_bessel(r, nu, lengthscale, outputscale):
    """General Matern form via the modified Bessel function; reference only."""
    r = np.asarray(r, dtype=np.float64)
    u = np.sqrt(2.0 * nu) * r / lengthscale
    out = np.full_like(u, outputscale)
    mask = u > 0
    um = u[mask]
    out[mask] = outputscale * (2.0 ** (1.0 - nu) / gamma(nu)) * um**nu * kv(nu, um)
    return out


class TestKernelEval:
    def test_rbf_zero_distance_is_outputscale(self):
        spec = spec_for("rbf", log_outputscale=math.log(1.7))
        assert abs(gp.kernel_eval(spec, [1.0, 2.0], [1.0, 2.0]) - 1.7) < 1e-14

    def test_rbf_at_sqrt2_lengthscales(self):
        # r = l*sqrt(2) puts the exponent at exactly -1
        ls = 0.7
        spec = spec_for("rbf", log_outputscale=0.0, log_lengthscale=math.log(ls))
        r = ls * math.sqrt(2.0)
        val = gp.kernel_eval(spec, [0.0], [r])
        assert abs(val - math.exp(-1.0)) < 1e-14

    def test_matern_at_r_equals_lengthscale(self):
        spec = spec_for("matern25", log_outputscale=0.0, log_lengthscale=0.0)
        expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
        assert abs(gp.kernel_eval(spec, [0.0], [1.0]) - expected) < 1e-14

    def test_matern_against_bessel_oracle(self):
        rng = np.random.default_rng(SEED)
        ls, os_ = 0.8, 1.6
        spec = spec_for("matern25", log_outputscale=math.log(os_), log_lengthscale=math.log(ls))
        rs = np.concatenate([[0.0], rng.uniform(1e-3, 6.0, size=1000)])
        ours = np.array([gp.kernel_eval(spec, [0.0], [r]) for r in rs])
        ref = matern_bessel(rs, 2.5, ls, os_)
        assert np.max(np.abs(ours - ref)) < 1e-8

    def test_periodic_at_full_period(self):
        p = 0.9
        spec = spec_for("periodic", log_outputscale=0.0, log_period=math.log(p))
        assert abs(gp.kernel_eval(spec, [0.0], [p]) - 1.0) < 1e-14

    def test_composite_at_zero_distance(self):
        spec = spec_for(
            "composite", log_outputscale=math.log(1.3), log_period=0.2,
            log_periodic_lengthscale=0.1,
        )
        # unit matern + unit periodic both equal 1 at r=0
        assert abs(gp.kernel_eval(spec, [2.0, 3.0], [2.0, 3.0]) - 2.6) < 1e-14
        assert abs(gp.kernel_from_sqdist(spec, 0.0) - 2.6) < 1e-14

    def test_symmetry_exact(self):
        rng = np.random.default_rng(SEED + 1)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        for spec in all_family_specs():
            assert gp.kernel_eval(spec, a, b) == gp.kernel_eval(spec, b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gp.kernel_eval(spec_for("rbf"), [1.0], [1.0, 2.0])

    def test_unknown_family(self):
        with pytest.raises(DimensionMismatch):
            gp.KernelSpec(family="cubic")


class TestKernelMatrix:
    def test_single_point(self):
        spec = spec_for("rbf", log_outputscale=math.log(2.5))
        k = gp.kernel_matrix(spec, [[1.0, 2.0]], [[1.0, 2.0]])
        assert k.shape == (1, 1) and abs(k[0, 0] - 2.5) < 1e-14

    def test_two_identical_points(self):
        spec = spec_for("rbf", log_outputscale=math.log(1.9))
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        k = gp.kernel_matrix(spec, x, x)
        assert np.allclose(k, 1.9, atol=1e-14)

    def test_matches_entrywise_eval(self):
        rng = np.random.default_rng(SEED + 2)
        x = rng.standard_normal((10, 4))
        y = rng.standard_normal((7, 4))
        for spec in all_family_specs():
            k = gp.kernel_matrix(spec, x, y)
            brute = np.array(
                [[gp.kernel_eval(spec, xi, yj) for yj in y] for xi in x]
            )
            assert np.max(np.abs(k - brute)) < 1e-12

    def test_gram_symmetric(self):
        rng = np.random.default_rng(SEED + 3)
        x = rng.standard_normal((12, 3))
        for spec in all_family_specs():
            k = gp.kernel_matrix(spec, x, x)
            assert np.max(np.abs(k - k.T)) < 1e-12

    @pytest.mark.determinism
    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_gram_exactly_symmetric(self, family):
        """The pairwise squared distances within x are symmetric to the last
        bit, so K(x, x) is as well, for any memory layout of x."""
        rng = np.random.default_rng(SEED + 15)
        spec = next(s for s in all_family_specs() if s.family == family)
        for n, d in ((1, 1), (2, 3), (7, 1), (33, 5), (160, 33), (400, 47)):
            x = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0)
            for layout in (x, np.asfortranarray(x), np.hstack([x, x])[:, ::2]):
                k = gp.kernel_matrix(spec, layout, layout)
                assert np.array_equal(k, k.T), (n, d)

    def test_psd_after_noise_all_families(self):
        rng = np.random.default_rng(SEED + 4)
        for spec in all_family_specs():
            d = dims_for(spec.family)
            for _ in range(25):
                x = rng.standard_normal((15, d)) * rng.uniform(0.2, 3.0)
                k = gp.kernel_matrix(spec, x, x)
                nc.cholesky(k + 1e-6 * np.eye(15))  # must not raise

    def test_psd_heuristic_init_higher_dim(self):
        # with init_state's own hyperparameters, every family factors in 5-D
        rng = np.random.default_rng(SEED + 14)
        for family in gp.FAMILIES:
            if family == "periodic":
                continue  # standalone periodic is 1-D territory, covered above
            for _ in range(10):
                x = rng.standard_normal((24, 5)) * rng.uniform(0.3, 2.0)
                y = rng.standard_normal(24)
                st = gp.init_state(x, y, family)
                k = gp.kernel_matrix(st.kernel, x, x)
                nc.cholesky(k + math.exp(st.log_noise) * np.eye(24))


class TestNmll:
    def test_single_point_zero_residual(self):
        # quadratic term 0, log det 0 -> 0.5*log(2*pi)
        state = gp.GPState(
            kernel=spec_for("rbf", log_outputscale=math.log(0.5)),
            log_noise=math.log(0.5),
            mean_const=3.0,
        )
        val = nmll_value(state, [[0.0]], [3.0])
        assert abs(val - 0.5 * math.log(2.0 * math.pi)) < 1e-12

    def test_single_point_residual_two(self):
        state = gp.GPState(
            kernel=spec_for("rbf", log_outputscale=math.log(0.5)),
            log_noise=math.log(0.5),
            mean_const=0.0,
        )
        val = nmll_value(state, [[0.0]], [2.0])
        assert abs(val - (2.0 + 0.5 * math.log(2.0 * math.pi))) < 1e-12

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(SEED + 5)
        for spec in all_family_specs():
            x = rng.standard_normal((5, dims_for(spec.family)))
            y = rng.standard_normal(5)
            state = gp.GPState(kernel=spec, log_noise=math.log(0.3), mean_const=0.4)
            a = gp.kernel_matrix(spec, x, x) + 0.3 * np.eye(5)
            resid = y - 0.4
            direct = (
                0.5 * resid @ np.linalg.inv(a) @ resid
                + 0.5 * math.log(np.linalg.det(a))
                + 2.5 * math.log(2.0 * math.pi)
            )
            assert abs(nmll_value(state, x, y) - direct) < 1e-8

    def test_node_agrees_with_plain(self):
        """The likelihood's value against the one that the factor and alpha
        of GPState.refresh, which the posterior uses, give."""
        rng = np.random.default_rng(SEED + 6)
        x = rng.standard_normal((6, 1))
        y = rng.standard_normal(6)
        state = gp.GPState(
            kernel=spec_for("composite", log_period=0.3, log_periodic_lengthscale=0.2),
            log_noise=math.log(0.2),
            mean_const=0.1,
        )
        value, _, _ = gp.nmll_node(state, x, y)
        st = state.refresh(x, y)
        plain = (0.5 * ((y - st.mean_const) @ st.alpha).item() + 0.5 * st.chol.logdet()
                 + 0.5 * y.size * math.log(2.0 * math.pi))
        assert abs(value - plain) < 1e-10

    def test_gradients_wrt_hypers_and_inputs(self):
        """The joint-training pathway: d nmll / d (hypers, X) by finite differences."""
        rng = np.random.default_rng(SEED + 7)
        n = 6
        y = rng.standard_normal(n)
        for family in gp.FAMILIES:
            d = dims_for(family)
            x0 = rng.standard_normal((n, d))
            base = gp.init_state(x0, y, family)
            n_h = base.hypers_flat().size

            def f(flat, base=base, n_h=n_h):
                st = base.with_hypers_flat(flat[:n_h])
                xm = flat[n_h:].reshape(n, d)
                value, d_hypers, d_x = gp.nmll_node(st, xm, y, d)
                return value, np.concatenate([d_hypers, d_x.ravel()])

            flat0 = np.concatenate([base.hypers_flat(), x0.ravel()])
            err = nc.finite_diff_check(f, flat0, 1e-5)
            assert err < 1e-4, f"{family}: max rel grad error {err:.2e}"

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_input_gradient_at_coincident_points(self, family):
        """Two training points at r = 0 off the diagonal: the derivative
        through r = sqrt(d2) is taken as 0 there, which is exact because
        the kernel is even in r, so the X gradient stays finite and agrees
        with central differences."""
        rng = np.random.default_rng(SEED + 20)
        x0 = rng.standard_normal((6, dims_for(family)))
        x0[4] = x0[1]
        y = rng.standard_normal(6)
        state = gp.init_state(x0, y, family)

        def f(flat):
            value, _, d_x = gp.nmll_node(state, flat.reshape(x0.shape), y, x0.shape[1])
            return value, d_x.ravel()

        value, grad = f(x0.ravel())
        assert np.all(np.isfinite(grad))
        numeric = nc.central_difference(lambda v: f(v)[0], x0.ravel(), 1e-5)
        assert np.max(np.abs(grad - numeric)) < 1e-8 * max(1.0, np.max(np.abs(numeric)))

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_block_matches_primitive_composition(self, family):
        """nmll_node against the same likelihood built from one tape
        node per elementwise operation (tape_reference), with a coincident
        pair among the inputs: value and gradients within 1e-10."""
        rng = np.random.default_rng(SEED + 21)
        x = rng.standard_normal((40, dims_for(family)))
        x[7] = x[3]
        y = rng.standard_normal(40)
        state = gp.init_state(x, y, family)

        value, d_hypers, d_x = gp.nmll_node(state, x, y, x.shape[1])
        ref_tape = nc.Tape()
        ref_x = ref_tape.leaf(x)
        ref, ref_hypers = tr.nmll(ref_tape, state, ref_x, y)
        nc.backward(ref_tape, ref, 1.0)

        assert abs(value - ref.value.item()) < 1e-10 * abs(ref.value.item())
        for ours, theirs in ((d_hypers, ref_hypers.grad), (d_x, ref_x.grad)):
            assert np.max(np.abs(ours.ravel() - theirs.ravel())) < 1e-10 * np.max(np.abs(theirs))

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_noise_on_diagonal_matches_dense_identity(self, family, monkeypatch):
        """K + noise*I, formed on the diagonal of K's own array, which is put
        back after the factor, gives the same value and both gradients, bit
        for bit, as factoring a new K + noise*I while K stays as it is."""
        rng = np.random.default_rng(SEED + 23)
        x = rng.standard_normal((60, dims_for(family)))
        y = rng.standard_normal(60)
        state = gp.init_state(x, y, family)

        def run():
            return gp.nmll_node(state, x, y, x.shape[1])

        ours = run()
        block, cholesky = gp.kernel_block, nc.cholesky

        def dense_block(spec, x, inputs=True):
            # the likelihood gets a copy of K; the block's VJP and the
            # factor see only the untouched K
            k, vjp = block(spec, x, inputs)
            noise = math.exp(state.log_noise)
            monkeypatch.setattr(nc, "cholesky",
                                lambda _: cholesky(k + noise * np.eye(k.shape[0])))
            return k.copy(), vjp

        monkeypatch.setattr(gp, "kernel_block", dense_block)
        dense = run()
        assert ours[0] == dense[0]
        assert np.array_equal(ours[1], dense[1])
        assert np.array_equal(ours[2], dense[2])

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_kernel_block_value_is_kernel_matrix(self, family):
        rng = np.random.default_rng(SEED + 22)
        x = rng.standard_normal((9, 3))
        spec = gp.init_state(x, rng.standard_normal(9), family).kernel
        k, _ = gp.kernel_block(spec, x)
        assert np.array_equal(k, gp.kernel_matrix(spec, x, x))


class TestKernelBlockVjp:
    @pytest.mark.parametrize("family", gp.FAMILIES)
    @pytest.mark.parametrize("inputs", [True, False])
    def test_leaves_its_adjoint_alone_and_repeats(self, family, inputs):
        """gradcheck hands one probe G to every call, so the VJP may neither
        write into G nor into the derivatives it keeps."""
        rng = np.random.default_rng(SEED + 25)
        x = rng.standard_normal((20, dims_for(family)))
        spec = gp.init_state(x, rng.standard_normal(20), family).kernel
        g = rng.standard_normal((20, 20))
        probe = g.copy()
        _, vjp = gp.kernel_block(spec, x, inputs)
        first = vjp(g)
        assert np.array_equal(g, probe)
        second = vjp(g)
        assert np.array_equal(g, probe)
        for a, b in zip(first, second):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def _nmll_problem(family):
    """The likelihood's shapes in joint training at the CLI defaults: 400
    rows of 20 latent and 27 static columns."""
    rng = np.random.default_rng(SEED + 31)
    x = rng.standard_normal((400, 47))
    y = rng.standard_normal(400)
    return gp.init_state(x, y, family), x, y


def nmll_digest(family, n_latent):
    """SHA-256 of nmll_node's value, d_hypers and d_latent on _nmll_problem,
    under one BLAS thread as in training."""
    state, x, y = _nmll_problem(family)
    with nc.one_blas_thread():
        value, d_hypers, d_latent = gp.nmll_node(state, x, y, n_latent)
    parts = [np.array([value]), d_hypers] + ([] if d_latent is None else [d_latent])
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


# nmll_node's outputs, pinned byte for byte: BLAS core -> (family, n_latent)
# -> nmll_digest.
NMLL_DIGESTS = {
    "SkylakeX": {
        ("rbf", 20): "83142ff12bf412f757bf1da2eb305bd8d0dd7111ce6365677bf988bc3691c241",
        ("rbf", 0): "b6b0b2e96f7dac6ffe38172a2296dd03f44546655aaabfd32861b1e18c42bd60",
        ("matern25", 20): "d8aca4aae9484cff12339f930a0ab4adc0a611f39a4fce322d4234616db3ee57",
        ("matern25", 0): "3fef6d70232a1ca942a7a8cb6ab90c526b2afadf03df6811619d8ad35a349d0a",
        ("composite", 20): "fd2e0fbe4b165fbda434bf44d6cb9932155cf86d003f2fc748cf49e4909fee5a",
        ("composite", 0): "b22cc33f4815a5881291ec8565aba7294ab4ff7efb574f25ed1bceb0b4dcc9b9",
    },
    "Haswell": {
        ("rbf", 20): "9d9bcbef00d109b6f367b97a7719adc65e8513bf1ee66a1cf0b5bf54d54eaa0b",
        ("rbf", 0): "c0c98a92fd184d72b2439a4ee5df483f9c97374d2e29335d5abb89b162860345",
        ("matern25", 20): "9ac2b5e2f3d627b738383c1578a51fb193b2ad81ea9c7eb9f452cf563a222bad",
        ("matern25", 0): "670a9e03c11ec6138887dd2a75be0a15e1af5df53eb7ea004ee902e612eeb103",
        ("composite", 20): "46c115ab6d9ec5a7b8f04159331ffa7e0ebb744c2c6ae9c40fc2f8fcef1df430",
        ("composite", 0): "334fb2e461643b9bc526143dab4448488ff35a033bbe3d816129352fb01efc34",
    },
}
# Bounds on nmll_node's tracemalloc peak on _nmll_problem, in MiB; one n x n
# array is 1.22 MiB. The likelihood peaks at 7.4 and 5.5 (rbf), 7.5 and 7.3
# (matern25) and 12.4 and 11.0 (composite), with and without the input
# gradient. Keeping the Cholesky factor and L^-1 to the end, factoring a copy
# of K + noise*I and building the kernel formulas from temporaries took 10.2
# and 7.3, 10.2 and 9.8, and 17.1 and 15.9: each bound is more than one
# array below those.
NMLL_PEAK_MB = {
    ("rbf", 20): 8.0,
    ("rbf", 0): 6.0,
    ("matern25", 20): 8.0,
    ("matern25", 0): 8.0,
    ("composite", 20): 13.0,
    ("composite", 0): 11.5,
}


class TestNmllWorkingSet:
    @pytest.mark.determinism
    @pytest.mark.parametrize("case", list(NMLL_DIGESTS["SkylakeX"]), ids=str)
    def test_outputs_pinned_byte_for_byte(self, case):
        assert nmll_digest(*case) == pinned(NMLL_DIGESTS)[case]

    @pytest.mark.parametrize("case", list(NMLL_PEAK_MB), ids=str)
    def test_peak_memory(self, case):
        family, n_latent = case
        state, x, y = _nmll_problem(family)
        gp.nmll_node(state, x, y, n_latent)  # first-call allocations aside
        tracemalloc.start()
        try:
            gp.nmll_node(state, x, y, n_latent)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < NMLL_PEAK_MB[case]


class TestHyperOnlyGradient:
    """Without latent columns the likelihood forms neither dK/dd2 nor the
    input adjoint. The hyperparameter gradient, and with it a whole gp.fit,
    must be the same bits as when both are formed and then dropped."""

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_kernel_derivatives_are_the_same_bits(self, family):
        rng = np.random.default_rng(SEED + 23)
        x = rng.standard_normal((30, 3))
        x[5] = x[2]
        spec = gp.init_state(x, rng.standard_normal(30), family).kernel
        d2 = gp._sqdist(x)
        k, _, d_log = gp.kernel_from_sqdist(spec, d2, grad=True)
        k_h, none, d_log_h = gp.kernel_from_sqdist(spec, d2, grad=True, inputs=False)
        assert none is None and k_h.tobytes() == k.tobytes()
        assert [a.tobytes() for a in d_log_h] == [a.tobytes() for a in d_log]
        g = rng.standard_normal((30, 30))
        d_hypers, d_x = gp.kernel_block(spec, x, inputs=False)[1](g)
        assert d_x is None
        assert d_hypers.tobytes() == gp.kernel_block(spec, x)[1](g)[0].tobytes()

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_gradient_and_trained_state_are_the_same_bits(self, family, monkeypatch):
        rng = np.random.default_rng(SEED + 24)
        x = rng.standard_normal((60, dims_for(family)))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(60)
        state = gp.init_state(x, y, family)
        opt = OptimizerConfig(max_epochs=12, patience=12)

        def outputs():
            _, d_hypers, _ = gp.nmll_node(state, x, y)
            fitted, trace = gp.fit(state, x, y, opt)
            return [d_hypers, fitted.hypers_flat(), fitted.chol.lower,
                    fitted.chol.inverse, fitted.alpha, np.array(trace)]

        skipped = outputs()
        block = gp.kernel_block
        formed = []

        def with_input_gradient(spec, x, inputs=True):
            formed.append(inputs)
            return block(spec, x)

        monkeypatch.setattr(gp, "kernel_block", with_input_gradient)
        dropped = outputs()
        assert formed and not any(formed)  # nmll_node asked for no input gradient
        assert [a.tobytes() for a in skipped] == [a.tobytes() for a in dropped]


class TestPosterior:
    def test_interpolates_single_observation(self):
        state = gp.GPState(
            kernel=spec_for("rbf"), log_noise=math.log(1e-6), mean_const=0.0
        ).refresh([[0.5]], [2.0])
        post = gp.posterior(state, [[0.5]])
        assert abs(post.mean[0] - 2.0) < 1e-3
        assert post.variance[0] < 1e-3

    def test_far_point_reverts_to_prior(self):
        state = gp.GPState(
            kernel=spec_for("rbf", log_outputscale=math.log(1.4)),
            log_noise=math.log(0.01),
            mean_const=0.7,
        ).refresh([[0.0], [0.3]], [1.0, 1.2])
        post = gp.posterior(state, [[1e6]])
        assert abs(post.mean[0] - 0.7) < 1e-12
        assert abs(post.variance[0] - 1.4) < 1e-12

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(SEED + 8)
        for spec in all_family_specs():
            d = dims_for(spec.family)
            x = rng.standard_normal((10, d))
            y = rng.standard_normal(10)
            xs = rng.standard_normal((5, d))
            state = gp.GPState(kernel=spec, log_noise=math.log(0.15), mean_const=0.2)
            state = state.refresh(x, y)
            post = gp.posterior(state, xs)

            a_inv = np.linalg.inv(gp.kernel_matrix(spec, x, x) + 0.15 * np.eye(10))
            ks = gp.kernel_matrix(spec, x, xs)
            mean = 0.2 + ks.T @ a_inv @ (y - 0.2)
            var = np.diag(gp.kernel_matrix(spec, xs, xs)) - np.einsum(
                "ij,ij->j", ks, a_inv @ ks
            )
            assert np.max(np.abs(post.mean - mean)) < 1e-8
            assert np.max(np.abs(post.variance - var)) < 1e-8

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_refresh_matches_dense_identity(self, family):
        """refresh's factor and alpha are those of K + noise*I formed with a
        dense identity, bit for bit."""
        rng = np.random.default_rng(SEED + 24)
        x = rng.standard_normal((70, dims_for(family)))
        y = rng.standard_normal(70)
        state = gp.init_state(x, y, family).refresh(x, y)

        k = gp.kernel_matrix(state.kernel, x, x)
        lower = np.linalg.cholesky(k + math.exp(state.log_noise) * np.eye(70))
        inverse = nc.lower_inverse(lower)
        alpha = inverse.T @ (inverse @ (y - state.mean_const).reshape(-1, 1))
        assert state.chol.jitter == 0.0
        assert np.array_equal(state.chol.lower, lower)
        assert np.array_equal(state.chol.inverse, inverse)
        assert np.array_equal(state.alpha, alpha)

    def test_variance_bounds(self):
        rng = np.random.default_rng(SEED + 9)
        for spec in all_family_specs():
            d = dims_for(spec.family)
            x = rng.standard_normal((20, d))
            y = rng.standard_normal(20)
            state = gp.GPState(kernel=spec, log_noise=math.log(0.1), mean_const=0.0)
            state = state.refresh(x, y)
            post = gp.posterior(state, rng.standard_normal((30, d)) * 2)
            assert np.all(post.variance >= 0.0)
            assert np.all(post.variance <= gp.kernel_from_sqdist(spec, 0.0) + 1e-8)

    def test_dimension_mismatch(self):
        state = gp.GPState(kernel=spec_for("rbf"), log_noise=0.0, mean_const=0.0)
        state = state.refresh([[0.0, 1.0]], [1.0])
        with pytest.raises(DimensionMismatch):
            gp.posterior(state, [[1.0, 2.0, 3.0]])

    def test_unfactored_state_is_refused(self):
        # new hyperparameters drop the factor; posterior does not refactor
        state = gp.GPState(kernel=spec_for("rbf"), log_noise=0.0, mean_const=0.0)
        state = state.refresh([[0.0], [1.0]], [1.0, 2.0])
        for unfactored in (gp.GPState(kernel=spec_for("rbf"), log_noise=0.0, mean_const=0.0),
                           state.with_hypers_flat(state.hypers_flat())):
            with pytest.raises(DegenerateInput, match=r"not factored.*refresh"):
                gp.posterior(unfactored, [[0.5]])


class TestFit:
    def test_constant_targets(self):
        rng = np.random.default_rng(SEED + 10)
        x = rng.standard_normal((12, 2))
        y = np.full(12, 0.37)
        state, trace = gp.fit(gp.init_state(x, y), x, y, OptimizerConfig(max_epochs=30))
        assert abs(state.mean_const - 0.37) < 1e-6
        post = gp.posterior(state, rng.standard_normal((4, 2)) * 3)
        assert np.max(np.abs(post.mean - 0.37)) < 1e-3
        assert trace[-1] <= trace[0]

    def test_trace_final_not_above_initial(self):
        rng = np.random.default_rng(SEED + 11)
        for family in gp.FAMILIES:
            x = rng.standard_normal((15, dims_for(family)))
            y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(15)
            _, trace = gp.fit(
                gp.init_state(x, y, family), x, y, OptimizerConfig(max_epochs=25)
            )
            assert trace[-1] <= trace[0]

    def test_lengthscale_recovery_within_factor_two(self):
        # draw from a known RBF GP: l=1, outputscale=1, noise 0.01
        rng = np.random.default_rng(424242)
        n = 50
        x = rng.uniform(-3.0, 3.0, size=(n, 1))
        true = spec_for("rbf", log_outputscale=0.0, log_lengthscale=0.0)
        k = gp.kernel_matrix(true, x, x) + 0.01 * np.eye(n)
        y = np.linalg.cholesky(k) @ rng.standard_normal(n)
        state, _ = gp.fit(
            gp.init_state(x, y, "rbf"), x, y, OptimizerConfig(max_epochs=200, patience=20)
        )
        ls = math.exp(state.kernel.log_lengthscale)
        assert 0.5 <= ls <= 2.0

    def test_needs_two_points(self):
        with pytest.raises(DegenerateInput):
            gp.fit(
                gp.GPState(kernel=spec_for("rbf"), log_noise=0.0, mean_const=0.0),
                [[1.0]],
                [1.0],
            )

    def test_divergence_reported(self):
        # an absurd learning rate sends the loss to non-finite territory
        rng = np.random.default_rng(SEED + 12)
        x = rng.standard_normal((8, 2))
        y = 100.0 * rng.standard_normal(8)
        with pytest.raises(Divergence), np.errstate(all="ignore"):
            gp.fit(
                gp.init_state(x, y),
                x,
                y,
                OptimizerConfig(learning_rate=1e6, max_epochs=50, patience=50),
            )

    def test_improves_on_structured_data(self):
        rng = np.random.default_rng(SEED + 13)
        x = np.linspace(-2, 2, 30).reshape(-1, 1)
        y = np.sin(2.0 * x).ravel() + 0.05 * rng.standard_normal(30)
        init = gp.init_state(x, y, "matern25")
        state, trace = gp.fit(init, x, y, OptimizerConfig(max_epochs=60))
        assert trace[-1] < trace[0] - 0.5  # meaningful optimization progress
        post = gp.posterior(state, x)
        assert np.mean(np.abs(post.mean - y)) < 0.2
