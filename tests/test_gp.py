"""GP checks: kernel values against closed forms and a Bessel-function
oracle, Cholesky posterior against naive dense inversion, marginal
likelihood against hand values and finite differences, and hyperparameter
fitting behavior."""

import math

import numpy as np
import pytest
import tape_reference as tr
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
        assert abs(gp.kernel_value_at_zero(spec) - 2.6) < 1e-14

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
        val = gp.nmll(state, [[0.0]], [3.0])
        assert abs(val - 0.5 * math.log(2.0 * math.pi)) < 1e-12

    def test_single_point_residual_two(self):
        state = gp.GPState(
            kernel=spec_for("rbf", log_outputscale=math.log(0.5)),
            log_noise=math.log(0.5),
            mean_const=0.0,
        )
        val = gp.nmll(state, [[0.0]], [2.0])
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
            assert abs(gp.nmll(state, x, y) - direct) < 1e-8

    def test_node_agrees_with_plain(self):
        rng = np.random.default_rng(SEED + 6)
        x = rng.standard_normal((6, 1))
        y = rng.standard_normal(6)
        state = gp.GPState(
            kernel=spec_for("composite", log_period=0.3, log_periodic_lengthscale=0.2),
            log_noise=math.log(0.2),
            mean_const=0.1,
        )
        tape = nc.Tape()
        node, _ = gp.nmll_node(tape, state, None, y, fixed=x)
        assert abs(node.value.item() - gp.nmll(state, x, y)) < 1e-10

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
                tape = nc.Tape()
                x_node = tape.leaf(xm)
                node, hypers = gp.nmll_node(tape, st, x_node, y)
                nc.backward(tape, node)
                grad = np.concatenate([hypers.grad.ravel(), x_node.grad.ravel()])
                return node.value.item(), grad

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
            tape = nc.Tape()
            x_node = tape.leaf(flat.reshape(x0.shape))
            node, _ = gp.nmll_node(tape, state, x_node, y)
            nc.backward(tape, node)
            return node.value.item(), x_node.grad.ravel()

        value, grad = f(x0.ravel())
        assert np.all(np.isfinite(grad))
        numeric = nc.central_difference(lambda v: f(v)[0], x0.ravel(), 1e-5)
        assert np.max(np.abs(grad - numeric)) < 1e-8 * max(1.0, np.max(np.abs(numeric)))

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_block_matches_primitive_composition(self, family):
        """The fused block against the same likelihood built from one tape
        node per elementwise operation (tape_reference), with a coincident
        pair among the inputs: value and gradients within 1e-10."""
        rng = np.random.default_rng(SEED + 21)
        x = rng.standard_normal((40, dims_for(family)))
        x[7] = x[3]
        y = rng.standard_normal(40)
        state = gp.init_state(x, y, family)

        tape = nc.Tape()
        x_node = tape.leaf(x)
        node, hypers = gp.nmll_node(tape, state, x_node, y)
        nc.backward(tape, node)
        ref_tape = nc.Tape()
        ref_x = ref_tape.leaf(x)
        ref, ref_hypers = tr.nmll(ref_tape, state, ref_x, y)
        nc.backward(ref_tape, ref)

        assert abs(node.value.item() - ref.value.item()) < 1e-10 * abs(ref.value.item())
        for ours, theirs in ((hypers.grad, ref_hypers.grad), (x_node.grad, ref_x.grad)):
            assert np.max(np.abs(ours.ravel() - theirs.ravel())) < 1e-10 * np.max(np.abs(theirs))

    @pytest.mark.parametrize("family", gp.FAMILIES)
    def test_kernel_block_value_is_kernel_matrix(self, family):
        rng = np.random.default_rng(SEED + 22)
        x = rng.standard_normal((9, 3))
        spec = gp.init_state(x, rng.standard_normal(9), family).kernel
        k, _ = gp.kernel_block(spec, x)
        assert np.max(np.abs(k - gp.kernel_matrix(spec, x, x))) < 1e-15


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
            var = gp.kernel_value_at_zero(spec) - np.einsum(
                "ij,ij->j", ks, a_inv @ ks
            )
            assert np.max(np.abs(post.mean - mean)) < 1e-8
            assert np.max(np.abs(post.variance - var)) < 1e-8

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
            assert np.all(post.variance <= gp.kernel_value_at_zero(spec) + 1e-8)

    def test_dimension_mismatch(self):
        state = gp.GPState(kernel=spec_for("rbf"), log_noise=0.0, mean_const=0.0)
        state = state.refresh([[0.0, 1.0]], [1.0])
        with pytest.raises(DimensionMismatch):
            gp.posterior(state, [[1.0, 2.0, 3.0]])


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
