"""Linear algebra and reverse-mode differentiation checks.

Every differentiable primitive is verified against central finite
differences at randomly drawn points; factorization and solve routines are
verified by reconstruction and against hand-worked small cases.
"""

import gc
import weakref

import numpy as np
import pytest

from mvelma import numcore as nc
from mvelma.errors import (
    DimensionMismatch,
    NonFiniteInput,
    NonScalarOutput,
    NotPositiveDefinite,
)

RNG_SEED = 20240613


def random_spd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n))
    return scale * (b @ b.T) + n * np.eye(n)


class TestAsMatrix:
    def test_scalar_becomes_1x1(self):
        m = nc.as_matrix(3.5)
        assert m.shape == (1, 1)
        assert m[0, 0] == 3.5

    def test_vector_becomes_column(self):
        m = nc.as_matrix([1.0, 2.0, 3.0])
        assert m.shape == (3, 1)

    def test_matrix_passthrough_dtype(self):
        m = nc.as_matrix(np.arange(6, dtype=np.int64).reshape(2, 3))
        assert m.dtype == np.float64
        assert m.shape == (2, 3)

    def test_3d_rejected(self):
        with pytest.raises(DimensionMismatch):
            nc.as_matrix(np.zeros((2, 2, 2)))


class TestCholesky:
    def test_hand_2x2(self):
        # [[4,2],[2,3]] factors to [[2,0],[1,sqrt(2)]]
        f = nc.cholesky([[4.0, 2.0], [2.0, 3.0]])
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(f.lower, expected, atol=1e-14)
        assert f.jitter == 0.0

    def test_reconstruction_up_to_50(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (1, 2, 3, 7, 20, 50):
            a = random_spd(rng, n)
            f = nc.cholesky(a)
            assert np.allclose(f.lower @ f.lower.T, a, atol=1e-8 * n)
            assert np.all(np.diag(f.lower) > 0)

    def test_logdet_matches_slogdet(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for n in (2, 5, 17):
            a = random_spd(rng, n)
            f = nc.cholesky(a)
            sign, ld = np.linalg.slogdet(a)
            assert sign == 1.0
            assert abs(f.logdet() - ld) < 1e-9 * max(1.0, abs(ld))

    def test_logdet_hand_2x2(self):
        # det([[4,2],[2,3]]) = 8
        f = nc.cholesky([[4.0, 2.0], [2.0, 3.0]])
        assert abs(f.logdet() - np.log(8.0)) < 1e-14

    def test_logdet_hand_3x3_diagonal(self):
        f = nc.cholesky(np.diag([2.0, 3.0, 5.0]))
        assert abs(f.logdet() - np.log(30.0)) < 1e-14

    def test_jitter_rescues_semidefinite(self):
        # rank-1 matrix, exactly singular
        v = np.array([[1.0], [2.0]])
        a = v @ v.T
        f = nc.cholesky(a)
        assert f.jitter > 0.0

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            nc.cholesky([[1.0, 0.0], [0.0, -5.0]])

    def test_asymmetric_raises(self):
        with pytest.raises(DimensionMismatch):
            nc.cholesky([[1.0, 0.5], [0.0, 1.0]])

    def test_nonsquare_raises(self):
        with pytest.raises(DimensionMismatch):
            nc.cholesky(np.ones((2, 3)))


class TestSolveSpd:
    def test_identity(self):
        f = nc.cholesky(np.eye(4))
        b = np.arange(4.0)
        assert np.allclose(nc.solve_spd(f, b).ravel(), b)

    def test_hand_2x2(self):
        # [[4,2],[2,3]] x = [8,7] -> x = [1.25, 1.5]
        f = nc.cholesky([[4.0, 2.0], [2.0, 3.0]])
        x = nc.solve_spd(f, [8.0, 7.0])
        assert np.allclose(x.ravel(), [1.25, 1.5], atol=1e-13)

    def test_random_residuals(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for n in (3, 11, 30):
            a = random_spd(rng, n)
            b = rng.standard_normal((n, 2))
            x = nc.solve_spd(nc.cholesky(a), b)
            assert np.allclose(a @ x, b, atol=1e-8)

    def test_rhs_row_mismatch(self):
        f = nc.cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            nc.solve_spd(f, np.ones((4, 1)))


def tape_grad_check(build, x0, step=1e-6, tol=1e-7):
    """build(tape, leaf) -> scalar node; checks d(out)/d(leaf) by central FD."""

    def f(x):
        tape = nc.Tape()
        leaf = tape.leaf(x.reshape(x0.shape))
        out = build(tape, leaf)
        nc.backward(tape, out)
        return float(out.value[0, 0]), leaf.grad.ravel().copy()

    err = nc.finite_diff_check(f, x0.ravel(), step)
    assert err < tol, f"gradient mismatch: max relative error {err:.3e}"


class TestPrimitiveGradients:
    """Each primitive, wrapped into a scalar, against central differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(RNG_SEED + 3)

    def test_add_with_broadcast(self):
        c = self.rng.standard_normal((1, 4))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.mul(nc.add(a, t.constant(c)), a)), x0
        )

    def test_sub(self):
        c = self.rng.standard_normal((3, 4))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.mul(nc.sub(a, t.constant(c)), a)), x0
        )

    def test_mul_broadcast_column(self):
        c = self.rng.standard_normal((3, 1))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.mul(a, nc.mul(t.constant(c), a))), x0
        )

    def test_div(self):
        c = 2.0 + np.abs(self.rng.standard_normal((3, 4)))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.div(nc.mul(a, a), t.constant(c))), x0
        )

    def test_div_wrt_denominator(self):
        num = self.rng.standard_normal((2, 3))
        x0 = 1.5 + np.abs(self.rng.standard_normal((2, 3)))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.div(t.constant(num), a)), x0
        )

    def test_scale_and_neg(self):
        x0 = self.rng.standard_normal((2, 5))
        tape_grad_check(lambda t, a: nc.sum_all(nc.scale(nc.mul(a, a), -2.5)), x0)

    def test_matmul_left(self):
        c = self.rng.standard_normal((4, 2))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.mul(nc.matmul(a, t.constant(c)), nc.matmul(a, t.constant(c)))),
            x0,
        )

    def test_matmul_right(self):
        c = self.rng.standard_normal((3, 4))
        x0 = self.rng.standard_normal((4, 2))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.mul(nc.matmul(t.constant(c), a), nc.matmul(t.constant(c), a))),
            x0,
        )

    def test_sigmoid(self):
        x0 = 3.0 * self.rng.standard_normal((3, 3))
        tape_grad_check(lambda t, a: nc.sum_all(nc.sigmoid(a)), x0)

    def test_sigmoid_extreme_inputs_finite(self):
        tape = nc.Tape()
        leaf = tape.leaf(np.array([[-800.0, 800.0]]))
        out = nc.sum_all(nc.sigmoid(leaf))
        nc.backward(tape, out)
        assert np.all(np.isfinite(out.value))
        assert np.all(np.isfinite(leaf.grad))

    def test_tanh(self):
        x0 = 2.0 * self.rng.standard_normal((2, 4))
        tape_grad_check(lambda t, a: nc.sum_all(nc.tanh(a)), x0)

    def test_exp(self):
        x0 = self.rng.standard_normal((2, 3))
        tape_grad_check(lambda t, a: nc.sum_all(nc.exp(a)), x0)

    def test_log(self):
        x0 = 1.0 + np.abs(self.rng.standard_normal((2, 3)))
        tape_grad_check(lambda t, a: nc.sum_all(nc.log(a)), x0)

    def test_sin(self):
        x0 = self.rng.standard_normal((3, 2))
        tape_grad_check(lambda t, a: nc.sum_all(nc.sin(a)), x0)

    def test_power_integer(self):
        x0 = self.rng.standard_normal((2, 3))
        tape_grad_check(lambda t, a: nc.sum_all(nc.power(a, 3.0)), x0)

    def test_power_half(self):
        x0 = 0.5 + np.abs(self.rng.standard_normal((2, 3)))
        tape_grad_check(lambda t, a: nc.sum_all(nc.power(a, 0.5)), x0)

    def test_power_zero_base_clamped(self):
        tape = nc.Tape()
        leaf = tape.leaf(np.array([[0.0, 4.0]]))
        out = nc.sum_all(nc.power(leaf, 0.5))
        nc.backward(tape, out)
        g = leaf.grad
        assert g[0, 0] == 0.0
        assert abs(g[0, 1] - 0.25) < 1e-14

    def test_softmax_rows(self):
        x0 = self.rng.standard_normal((3, 5))
        w = self.rng.standard_normal((3, 5))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.mul(nc.softmax_rows(a), t.constant(w))), x0
        )

    def test_softmax_rows_sum_to_one(self):
        tape = nc.Tape()
        a = tape.leaf(self.rng.standard_normal((4, 7)) * 10)
        s = nc.softmax_rows(a)
        assert np.allclose(s.value.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(s.value >= 0)

    def test_softmax_shift_invariance(self):
        x = self.rng.standard_normal((2, 6))
        t1, t2 = nc.Tape(), nc.Tape()
        s1 = nc.softmax_rows(t1.leaf(x))
        s2 = nc.softmax_rows(t2.leaf(x + 123.0))
        assert np.allclose(s1.value, s2.value, atol=1e-12)

    def test_concat_and_slice(self):
        x0 = self.rng.standard_normal((3, 4))
        w = self.rng.standard_normal((3, 8))

        def build(t, a):
            cat = nc.concat_cols([a, nc.mul(a, a)])
            return nc.sum_all(nc.mul(cat, t.constant(w)))

        tape_grad_check(build, x0)

    def test_slice_cols_grad(self):
        x0 = self.rng.standard_normal((2, 6))
        tape_grad_check(
            lambda t, a: nc.sum_all(nc.mul(nc.slice_cols(a, 1, 4), nc.slice_cols(a, 2, 5))),
            x0,
        )

    def test_sqdist_both_sides(self):
        a0 = self.rng.standard_normal((4, 3))
        b0 = self.rng.standard_normal((5, 3))
        w = self.rng.standard_normal((4, 5))

        def build_a(t, a):
            return nc.sum_all(nc.mul(nc.sqdist(a, t.constant(b0)), t.constant(w)))

        def build_b(t, b):
            return nc.sum_all(nc.mul(nc.sqdist(t.constant(a0), b), t.constant(w)))

        tape_grad_check(build_a, a0, tol=1e-6)
        tape_grad_check(build_b, b0, tol=1e-6)

    def test_sqdist_values(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 3.0]])
        tape = nc.Tape()
        d = nc.sqdist(tape.leaf(a), tape.leaf(b))
        assert np.allclose(d.value, [[9.0], [10.0]], atol=1e-14)

    def test_sqdist_self_diagonal_zero(self):
        x = self.rng.standard_normal((6, 4)) * 100
        tape = nc.Tape()
        a = tape.leaf(x)
        d = nc.sqdist(a, a)
        assert np.all(np.diag(d.value) == 0.0)
        assert np.all(d.value >= 0.0)

    def test_add_diag(self):
        x0 = self.rng.standard_normal((1, 1)) ** 2 + 1.0

        def build(t, s):
            base = t.constant(random_spd(np.random.default_rng(0), 3))
            a = nc.add_diag(base, s)
            return nc.chol_logdet(a)

        tape_grad_check(build, x0)

    def test_chol_quad_form_value(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        a = random_spd(rng, 5)
        b = rng.standard_normal((5, 1))
        tape = nc.Tape()
        q = nc.chol_quad_form(tape.constant(a), tape.constant(b))
        expected = (b.T @ np.linalg.solve(a, b)).item()
        assert abs(q.value[0, 0] - expected) < 1e-10

    def test_chol_quad_form_grad_b(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        a = random_spd(rng, 4)
        b0 = rng.standard_normal((4, 1))
        tape_grad_check(
            lambda t, b: nc.chol_quad_form(t.constant(a), b), b0
        )

    def test_chol_quad_form_grad_a(self):
        # perturb A through a symmetric parametrization: A = A0 + diag(x)
        rng = np.random.default_rng(RNG_SEED + 6)
        a0 = random_spd(rng, 3)
        b = rng.standard_normal((3, 1))
        x0 = np.abs(rng.standard_normal((1, 3))) + 0.5

        def f(x):
            tape = nc.Tape()
            leaf = tape.leaf(x.reshape(1, 3))
            a_node = tape.constant(a0)
            for i in range(3):
                e = np.zeros((3, 3))
                e[i, i] = 1.0
                a_node = nc.add(a_node, nc.mul(nc.slice_cols(leaf, i, i + 1), tape.constant(e)))
            out = nc.chol_quad_form(a_node, tape.constant(b))
            nc.backward(tape, out)
            return float(out.value[0, 0]), leaf.grad.ravel().copy()

        err = nc.finite_diff_check(f, x0.ravel(), 1e-6)
        assert err < 1e-6

    def test_chol_logdet_value(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        a = random_spd(rng, 6)
        tape = nc.Tape()
        node = nc.chol_logdet(tape.constant(a))
        assert abs(node.value[0, 0] - np.linalg.slogdet(a)[1]) < 1e-10

    def test_chol_logdet_grad_via_diag(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        a0 = random_spd(rng, 3)
        x0 = np.abs(rng.standard_normal((1, 3))) + 0.5

        def f(x):
            tape = nc.Tape()
            leaf = tape.leaf(x.reshape(1, 3))
            a_node = tape.constant(a0)
            for i in range(3):
                e = np.zeros((3, 3))
                e[i, i] = 1.0
                a_node = nc.add(a_node, nc.mul(nc.slice_cols(leaf, i, i + 1), tape.constant(e)))
            out = nc.chol_logdet(a_node)
            nc.backward(tape, out)
            return float(out.value[0, 0]), leaf.grad.ravel().copy()

        err = nc.finite_diff_check(f, x0.ravel(), 1e-6)
        assert err < 1e-7


class TestTapeMechanics:
    def test_backward_nonscalar_raises(self):
        tape = nc.Tape()
        a = tape.leaf(np.ones((2, 2)))
        with pytest.raises(NonScalarOutput):
            nc.backward(tape, a)

    def test_leaf_rejects_nonfinite(self):
        tape = nc.Tape()
        with pytest.raises(NonFiniteInput):
            tape.leaf([np.nan, 1.0])

    def test_fanout_accumulates(self):
        # y = x*x + x*x -> dy/dx = 4x
        tape = nc.Tape()
        x = tape.leaf(3.0)
        y = nc.add(nc.mul(x, x), nc.mul(x, x))
        nc.backward(tape, y)
        assert abs(x.grad[0, 0] - 12.0) < 1e-14

    def test_unreachable_leaf_zero_grad(self):
        tape = nc.Tape()
        x = tape.leaf(1.0)
        z = tape.leaf(5.0)
        nc.backward(tape, nc.mul(x, x))
        assert z.grad[0, 0] == 0.0

    def test_repeated_backward_resets(self):
        tape = nc.Tape()
        x = tape.leaf(2.0)
        y = nc.mul(x, x)
        nc.backward(tape, y)
        first = x.grad.copy()
        nc.backward(tape, y)
        assert np.array_equal(first, x.grad)

    def test_tape_freed_by_reference_counting(self):
        # nodes refer to their tape weakly, so no cycle waits for the collector
        gc.disable()
        try:
            tape = nc.Tape()
            x = tape.leaf(2.0)
            nc.backward(tape, nc.mul(x, x))
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
        finally:
            gc.enable()
        with pytest.raises(ReferenceError):
            nc.add(x, 1.0)  # a constant needs the freed tape

    def test_operator_sugar(self):
        tape = nc.Tape()
        x = tape.leaf(4.0)
        y = (x * x - 2.0 * x + 1.0) / 2.0
        nc.backward(tape, y)
        assert abs(y.value[0, 0] - 4.5) < 1e-14
        assert abs(x.grad[0, 0] - 3.0) < 1e-14

    def test_mixed_tapes_rejected(self):
        t1, t2 = nc.Tape(), nc.Tape()
        a = t1.leaf(1.0)
        b = t2.leaf(2.0)
        with pytest.raises(DimensionMismatch):
            nc.add(a, b)


class TestFiniteDiffCheck:
    def test_correct_gradient_passes(self):
        def f(x):
            return float(np.sum(x**2)), 2.0 * x

        err = nc.finite_diff_check(f, np.array([1.0, -2.0, 3.0]), 1e-6)
        assert err < 1e-9

    def test_wrong_gradient_flagged(self):
        def f(x):
            return float(np.sum(x**2)), 3.0 * x  # deliberately wrong

        err = nc.finite_diff_check(f, np.array([1.0, 2.0]), 1e-6)
        assert err > 0.1

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            nc.finite_diff_check(lambda x: (0.0, x), np.ones(2), 0.0)

    def test_many_random_points(self):
        # a mildly composite function through several primitives
        rng = np.random.default_rng(RNG_SEED + 9)
        w = rng.standard_normal((4, 4))

        def f(x):
            tape = nc.Tape()
            leaf = tape.leaf(x.reshape(2, 2))
            h = nc.tanh(nc.matmul(leaf, tape.constant(w[:2, :2])))
            out = nc.sum_all(nc.mul(nc.sigmoid(h), nc.exp(nc.scale(h, 0.3))))
            nc.backward(tape, out)
            return float(out.value[0, 0]), leaf.grad.ravel().copy()

        for _ in range(25):
            x0 = rng.standard_normal(4)
            assert nc.finite_diff_check(f, x0, 1e-6) < 1e-6
