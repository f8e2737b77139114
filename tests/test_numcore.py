"""Linear algebra and reverse-mode differentiation checks.

Factorization, solve and triangular-inverse routines are verified by
reconstruction and against hand-worked small cases, the parts runner by
the threads it uses and the order of its results, and the one-thread BLAS
pin by two threads that hold it at once. The tape mechanics are
exercised through the elementwise primitives of the test-only reference in
`tape_reference`, each of which is verified against central finite
differences at randomly drawn points; those primitives are the oracle that
the likelihood and the head are checked against in `test_gp` and
`test_pipeline`.
"""

import gc
import hashlib
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import tape_reference as tr
from blas_core import pinned

from mvelma import encoder as enc
from mvelma import numcore as nc
from mvelma.errors import (
    DimensionMismatch,
    NonFiniteInput,
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

    def test_jitter_rung_matches_dense_identity(self):
        """A rung's jitter goes on the diagonal alone; on a singular Gram
        matrix of nonnegative entries the factor is the one that adding
        jitter*I gives, bit for bit."""
        rng = np.random.default_rng(RNG_SEED + 2)
        x = rng.standard_normal((30, 2))
        x[15:] = x[:15]
        a = np.exp(-np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2))
        f = nc.cholesky(a)
        assert f.jitter > 0.0
        lower = np.linalg.cholesky(a + f.jitter * np.eye(30))
        assert np.array_equal(f.lower, lower)
        assert np.array_equal(f.inverse, nc.lower_inverse(lower))

    def test_plus_diagonal_leaves_input(self):
        m = np.arange(9.0).reshape(3, 3)
        out = nc.plus_diagonal(m, 0.5)
        assert np.array_equal(out, m + 0.5 * np.eye(3))
        assert np.array_equal(m, np.arange(9.0).reshape(3, 3))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            nc.cholesky([[1.0, 0.0], [0.0, -5.0]])

    def test_asymmetric_raises(self):
        with pytest.raises(DimensionMismatch):
            nc.cholesky([[1.0, 0.5], [0.0, 1.0]])

    def test_nonsquare_raises(self):
        with pytest.raises(DimensionMismatch):
            nc.cholesky(np.ones((2, 3)))

    @pytest.mark.parametrize("row", [0, 70, 149])
    def test_symmetry_check_reads_every_block(self, row):
        # the check goes through the rows in blocks. An asymmetry in any
        # block is measured against the largest |entry|, here a negative
        # one: twice the tolerance fails the check, and half of it passes on
        # to the factorization, which the negative diagonal entry fails
        rng = np.random.default_rng(RNG_SEED + 3)
        a = random_spd(rng, 150)
        a[7, 7] = -np.abs(a).max() - 50.0
        scale = np.abs(a).max()
        for factor, error in ((2.0, DimensionMismatch), (0.5, NotPositiveDefinite)):
            b = a.copy()
            b[row, (row + 40) % 150] += factor * 1e-10 * scale
            with pytest.raises(error):
                nc.cholesky(b)

    def test_symmetry_check_makes_no_full_size_temporary(self):
        # one 400 x 400 array is 1.28 MB; the check of an asymmetric matrix
        # raises before anything is factored
        rng = np.random.default_rng(RNG_SEED + 4)
        a = random_spd(rng, 400)
        a[300, 2] += 1.0
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch):
                nc.cholesky(a)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 0.8

    def test_factor_and_inverse_are_its_only_full_size_arrays(self):
        # at n = 400 the factor and its inverse take 2 x 1.22 MiB and the
        # inverse's top level one 200 x 200 product, 0.31 MiB: 2.75 MiB, where
        # copying each level's blocks into place reached 3.05 MiB
        rng = np.random.default_rng(RNG_SEED + 5)
        a = random_spd(rng, 400)
        tracemalloc.start()
        try:
            nc.cholesky(a)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 2.9


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


# lower_inverse of the factor of random_spd(n), pinned byte for byte: BLAS core
# -> n -> SHA-256
LOWER_INVERSE_DIGESTS = {
    "SkylakeX": {
        65: "158342264f06715c289c53af8cb42d76329ffd0d89d8aeb6a69ed0c871ee42a3",
        129: "eb70566fd20c974893c337db0d1a37e950ed987f0aff3157946d7bba3b0e97e2",
        400: "0ad29b3e291e9f2cd848c47fd7492a575e2025b840dfecfb51c10808990c6869",
        401: "484377f95569391d28c8be86aaccda552a2680cca98cd160f46cf88f212b6ec4",
    },
    "Haswell": {
        65: "2180a1748830b4766b1aeb39b3fe2ecae350ff05a1df3998aeef03ad1b19c578",
        129: "906fe184154ceddd66b44f6dc34f15a1c0ab8fede15086ab1de35027fcd05950",
        400: "eb70ea84fdb426f8e66bcbed67b18674f939c3e36dc38794cb927893a0c5e9f1",
        401: "642853fc57e44ac405904266d3200f3b6487c26426b2b9069ba2eaec0b501e59",
    },
}


class TestLowerInverse:
    @pytest.mark.parametrize("n", [1, 5, 64, 65, 200])
    def test_inverts_cholesky_factor(self, n):
        # sizes on both sides of the 64-row direct block and a two-level recursion
        rng = np.random.default_rng(RNG_SEED + 10)
        lower = nc.cholesky(random_spd(rng, n)).lower
        inv = nc.lower_inverse(lower)
        assert np.array_equal(inv, np.tril(inv))
        assert np.allclose(inv @ lower, np.eye(n), atol=1e-10)

    # the ids name each case by its n and SkylakeX digest
    @pytest.mark.parametrize("n", list(LOWER_INVERSE_DIGESTS["SkylakeX"]),
                             ids=lambda n: f"{n}-{LOWER_INVERSE_DIGESTS['SkylakeX'][n]}")
    @pytest.mark.determinism
    def test_inverse_pinned_byte_for_byte(self, n):
        # SHA-256 of the inverse, at one BLAS thread as the pipeline runs it
        rng = np.random.default_rng(RNG_SEED + 11)
        with nc.one_blas_thread():
            lower = nc.cholesky(random_spd(rng, n)).lower
            inv = nc.lower_inverse(lower)
        assert hashlib.sha256(inv.tobytes()).hexdigest() == pinned(LOWER_INVERSE_DIGESTS)[n]


def _weighted_sum(tape, node, w):
    """sum(node * w) for a fixed w: a scalar probe whose VJP hands w to node."""
    return nc.Node(tape, np.array([[np.sum(node.value * w)]]), (node,), lambda g: (g[0, 0] * w,))


def tape_grad_check(build, x0, step=1e-6, tol=1e-7):
    """build(tape, leaf) -> scalar node; checks d(out)/d(leaf) by central FD."""

    def f(x):
        tape = nc.Tape()
        leaf = tape.leaf(x.reshape(x0.shape))
        out = build(tape, leaf)
        nc.backward(tape, out, 1.0)
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
            lambda t, a: tr.sum_all(tr.mul(tr.add(a, t.leaf(c)), a)), x0
        )

    def test_sub(self):
        c = self.rng.standard_normal((3, 4))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: tr.sum_all(tr.mul(tr.sub(a, t.leaf(c)), a)), x0
        )

    def test_mul_broadcast_column(self):
        c = self.rng.standard_normal((3, 1))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: tr.sum_all(tr.mul(a, tr.mul(t.leaf(c), a))), x0
        )

    def test_div(self):
        c = 2.0 + np.abs(self.rng.standard_normal((3, 4)))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: tr.sum_all(tr.div(tr.mul(a, a), t.leaf(c))), x0
        )

    def test_div_wrt_denominator(self):
        num = self.rng.standard_normal((2, 3))
        x0 = 1.5 + np.abs(self.rng.standard_normal((2, 3)))
        tape_grad_check(
            lambda t, a: tr.sum_all(tr.div(t.leaf(num), a)), x0
        )

    def test_scale_and_neg(self):
        x0 = self.rng.standard_normal((2, 5))
        tape_grad_check(lambda t, a: tr.sum_all(tr.scale(tr.mul(a, a), -2.5)), x0)

    def test_matmul_left(self):
        c = self.rng.standard_normal((4, 2))
        x0 = self.rng.standard_normal((3, 4))
        tape_grad_check(
            lambda t, a: tr.sum_all(tr.mul(tr.matmul(a, t.leaf(c)), tr.matmul(a, t.leaf(c)))),
            x0,
        )

    def test_matmul_right(self):
        c = self.rng.standard_normal((3, 4))
        x0 = self.rng.standard_normal((4, 2))
        tape_grad_check(
            lambda t, a: tr.sum_all(tr.mul(tr.matmul(t.leaf(c), a), tr.matmul(t.leaf(c), a))),
            x0,
        )

    def test_sigmoid(self):
        x0 = 3.0 * self.rng.standard_normal((3, 3))
        tape_grad_check(lambda t, a: tr.sum_all(tr.sigmoid(a)), x0)

    def test_sigmoid_extreme_inputs_finite(self):
        tape = nc.Tape()
        leaf = tape.leaf(np.array([[-800.0, 800.0]]))
        out = tr.sum_all(tr.sigmoid(leaf))
        nc.backward(tape, out, 1.0)
        assert np.all(np.isfinite(out.value))
        assert np.all(np.isfinite(leaf.grad))

    def test_tanh(self):
        x0 = 2.0 * self.rng.standard_normal((2, 4))
        tape_grad_check(lambda t, a: tr.sum_all(tr.tanh(a)), x0)

    def test_exp(self):
        x0 = self.rng.standard_normal((2, 3))
        tape_grad_check(lambda t, a: tr.sum_all(tr.exp(a)), x0)

    def test_log(self):
        x0 = 1.0 + np.abs(self.rng.standard_normal((2, 3)))
        tape_grad_check(lambda t, a: tr.sum_all(tr.log(a)), x0)

    def test_sin(self):
        x0 = self.rng.standard_normal((3, 2))
        tape_grad_check(lambda t, a: tr.sum_all(tr.sin(a)), x0)

    def test_power_integer(self):
        x0 = self.rng.standard_normal((2, 3))
        tape_grad_check(lambda t, a: tr.sum_all(tr.power(a, 3.0)), x0)

    def test_power_half(self):
        x0 = 0.5 + np.abs(self.rng.standard_normal((2, 3)))
        tape_grad_check(lambda t, a: tr.sum_all(tr.power(a, 0.5)), x0)

    def test_power_zero_base_clamped(self):
        tape = nc.Tape()
        leaf = tape.leaf(np.array([[0.0, 4.0]]))
        out = tr.sum_all(tr.power(leaf, 0.5))
        nc.backward(tape, out, 1.0)
        g = leaf.grad
        assert g[0, 0] == 0.0
        assert abs(g[0, 1] - 0.25) < 1e-14

    def test_softmax_rows(self):
        x0 = self.rng.standard_normal((3, 5))
        w = self.rng.standard_normal((3, 5))
        tape_grad_check(
            lambda t, a: tr.sum_all(tr.mul(tr.softmax_rows(a), t.leaf(w))), x0
        )

    def test_softmax_rows_sum_to_one(self):
        tape = nc.Tape()
        a = tape.leaf(self.rng.standard_normal((4, 7)) * 10)
        s = tr.softmax_rows(a)
        assert np.allclose(s.value.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(s.value >= 0)

    def test_softmax_shift_invariance(self):
        x = self.rng.standard_normal((2, 6))
        t1, t2 = nc.Tape(), nc.Tape()
        s1 = tr.softmax_rows(t1.leaf(x))
        s2 = tr.softmax_rows(t2.leaf(x + 123.0))
        assert np.allclose(s1.value, s2.value, atol=1e-12)

    def test_concat_and_slice(self):
        x0 = self.rng.standard_normal((3, 4))
        w = self.rng.standard_normal((3, 8))

        def build(t, a):
            cat = tr.concat_cols([a, tr.mul(a, a)])
            return tr.sum_all(tr.mul(cat, t.leaf(w)))

        tape_grad_check(build, x0)

    def test_slice_cols_grad(self):
        x0 = self.rng.standard_normal((2, 6))
        tape_grad_check(
            lambda t, a: tr.sum_all(tr.mul(tr.slice_cols(a, 1, 4), tr.slice_cols(a, 2, 5))),
            x0,
        )

    def test_sqdist_both_sides(self):
        a0 = self.rng.standard_normal((4, 3))
        b0 = self.rng.standard_normal((5, 3))
        w = self.rng.standard_normal((4, 5))

        def build_a(t, a):
            return tr.sum_all(tr.mul(tr.sqdist(a, t.leaf(b0)), t.leaf(w)))

        def build_b(t, b):
            return tr.sum_all(tr.mul(tr.sqdist(t.leaf(a0), b), t.leaf(w)))

        tape_grad_check(build_a, a0, tol=1e-6)
        tape_grad_check(build_b, b0, tol=1e-6)

    def test_sqdist_values(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 3.0]])
        tape = nc.Tape()
        d = tr.sqdist(tape.leaf(a), tape.leaf(b))
        assert np.allclose(d.value, [[9.0], [10.0]], atol=1e-14)

    def test_sqdist_self_diagonal_zero(self):
        x = self.rng.standard_normal((6, 4)) * 100
        tape = nc.Tape()
        a = tape.leaf(x)
        d = tr.sqdist(a, a)
        assert np.all(np.diag(d.value) == 0.0)
        assert np.all(d.value >= 0.0)

    def test_add_diag(self):
        x0 = self.rng.standard_normal((1, 1)) ** 2 + 1.0

        def build(t, s):
            base = t.leaf(random_spd(np.random.default_rng(0), 3))
            a = tr.add_diag(base, s)
            return tr.chol_logdet(a)

        tape_grad_check(build, x0)

    def test_chol_quad_form_value(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        a = random_spd(rng, 5)
        b = rng.standard_normal((5, 1))
        tape = nc.Tape()
        q = tr.chol_quad_form(tape.leaf(a), tape.leaf(b))
        expected = (b.T @ np.linalg.solve(a, b)).item()
        assert abs(q.value[0, 0] - expected) < 1e-10

    def test_chol_quad_form_grad_b(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        a = random_spd(rng, 4)
        b0 = rng.standard_normal((4, 1))
        tape_grad_check(
            lambda t, b: tr.chol_quad_form(t.leaf(a), b), b0
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
            a_node = tape.leaf(a0)
            for i in range(3):
                e = np.zeros((3, 3))
                e[i, i] = 1.0
                a_node = tr.add(a_node, tr.mul(tr.slice_cols(leaf, i, i + 1), tape.leaf(e)))
            out = tr.chol_quad_form(a_node, tape.leaf(b))
            nc.backward(tape, out, 1.0)
            return float(out.value[0, 0]), leaf.grad.ravel().copy()

        err = nc.finite_diff_check(f, x0.ravel(), 1e-6)
        assert err < 1e-6

    def test_chol_logdet_value(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        a = random_spd(rng, 6)
        tape = nc.Tape()
        node = tr.chol_logdet(tape.leaf(a))
        assert abs(node.value[0, 0] - np.linalg.slogdet(a)[1]) < 1e-10

    def test_chol_logdet_grad_via_diag(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        a0 = random_spd(rng, 3)
        x0 = np.abs(rng.standard_normal((1, 3))) + 0.5

        def f(x):
            tape = nc.Tape()
            leaf = tape.leaf(x.reshape(1, 3))
            a_node = tape.leaf(a0)
            for i in range(3):
                e = np.zeros((3, 3))
                e[i, i] = 1.0
                a_node = tr.add(a_node, tr.mul(tr.slice_cols(leaf, i, i + 1), tape.leaf(e)))
            out = tr.chol_logdet(a_node)
            nc.backward(tape, out, 1.0)
            return float(out.value[0, 0]), leaf.grad.ravel().copy()

        err = nc.finite_diff_check(f, x0.ravel(), 1e-6)
        assert err < 1e-7


class TestTapeMechanics:
    def test_backward_seeds_a_matrix_adjoint(self):
        """Seeding the encoder's N x D output with W gives its parameter leaf
        the same bits as a scalar probe node for sum(Z * W) seeded with 1."""
        cfg = enc.EncoderConfig(input_width=3, seq_len=5, hidden=4, latent=2, seed=3)
        rng = np.random.default_rng(RNG_SEED + 11)
        batch = rng.standard_normal((6, cfg.seq_len, cfg.input_width))
        w = rng.standard_normal((6, cfg.latent))
        params = enc.init_params(cfg)

        tape = nc.Tape()
        seeded = enc.forward(params, batch, tape)
        nc.backward(tape, seeded.latent, w)
        probe_tape = nc.Tape()
        probed = enc.forward(params, batch, probe_tape)
        nc.backward(probe_tape, _weighted_sum(probe_tape, probed.latent, w), 1.0)
        assert seeded.params.grad.shape == probed.params.grad.shape
        assert seeded.params.grad.tobytes() == probed.params.grad.tobytes()

    def test_leaf_rejects_nonfinite(self):
        tape = nc.Tape()
        with pytest.raises(NonFiniteInput):
            tape.leaf([np.nan, 1.0])

    def test_fanout_accumulates(self):
        # y = x*x + x*x -> dy/dx = 4x
        tape = nc.Tape()
        x = tape.leaf(3.0)
        y = tr.add(tr.mul(x, x), tr.mul(x, x))
        nc.backward(tape, y, 1.0)
        assert abs(x.grad[0, 0] - 12.0) < 1e-14

    def test_unreachable_leaf_zero_grad(self):
        tape = nc.Tape()
        x = tape.leaf(1.0)
        z = tape.leaf(5.0)
        nc.backward(tape, tr.mul(x, x), 1.0)
        assert z.grad[0, 0] == 0.0

    def test_repeated_backward_resets(self):
        tape = nc.Tape()
        x = tape.leaf(2.0)
        y = tr.mul(x, x)
        nc.backward(tape, y, 1.0)
        first = x.grad.copy()
        nc.backward(tape, y, 1.0)
        assert np.array_equal(first, x.grad)

    def test_tape_freed_by_reference_counting(self):
        # nodes refer to their tape weakly, so no cycle waits for the collector
        gc.disable()
        try:
            tape = nc.Tape()
            x = tape.leaf(2.0)
            nc.backward(tape, tr.mul(x, x), 1.0)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
        finally:
            gc.enable()
        with pytest.raises(ReferenceError):
            tr.add(x, 1.0)  # a constant needs the freed tape

    def test_custom_block_one_adjoint_per_parent(self):
        # out = sum(a) * sum(b); adjoints arrive in parents order
        tape = nc.Tape()
        a = tape.leaf(np.array([[1.0, 2.0]]))
        b = tape.leaf(np.array([[3.0], [4.0]]))
        sa, sb = a.value.sum(), b.value.sum()
        out = nc.custom(tape, np.array([[sa * sb]]), (a, b),
                        lambda g: (g * sb * np.ones((1, 2)), g * sa * np.ones((2, 1))))
        nc.backward(tape, out, 1.0)
        assert out.value[0, 0] == 21.0
        assert np.array_equal(a.grad, [[7.0, 7.0]])
        assert np.array_equal(b.grad, [[3.0], [3.0]])
        assert tape.nodes == [a, b, out]

    def test_mixed_tapes_rejected(self):
        t1, t2 = nc.Tape(), nc.Tape()
        a = t1.leaf(1.0)
        b = t2.leaf(2.0)
        with pytest.raises(DimensionMismatch):
            tr.add(a, b)


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
            h = tr.tanh(tr.matmul(leaf, tape.leaf(w[:2, :2])))
            out = tr.sum_all(tr.mul(tr.sigmoid(h), tr.exp(tr.scale(h, 0.3))))
            nc.backward(tape, out, 1.0)
            return float(out.value[0, 0]), leaf.grad.ravel().copy()

        for _ in range(25):
            x0 = rng.standard_normal(4)
            assert nc.finite_diff_check(f, x0, 1e-6) < 1e-6


class TestCpuCount:
    def test_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(nc.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert nc.cpu_count() == 3

    @pytest.mark.parametrize("count, expected", [(6, 6), (None, 1)])
    def test_without_a_mask_falls_back_to_the_cpu_count(self, monkeypatch, count, expected):
        monkeypatch.delattr(nc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(nc.os, "cpu_count", lambda: count)
        assert nc.cpu_count() == expected

    def test_this_process(self):
        assert nc.cpu_count() >= 1


class TestOneBlasThread:
    @pytest.mark.determinism
    def test_pin_holds_until_the_last_thread_leaves(self, blas_pool):
        """A enters, B enters, A leaves: B must still compute at one thread,
        and after both leave the caller's count of 2 is back."""
        get, put = blas_pool
        put(2)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen, errors = [], []

        def run(steps):
            try:
                steps()
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                a_in.set(), b_in.set(), a_out.set()

        def thread_a():
            with nc.one_blas_thread():
                a_in.set()
                assert b_in.wait(30)
            a_out.set()

        def thread_b():
            assert a_in.wait(30)
            with nc.one_blas_thread():
                b_in.set()
                assert a_out.wait(30)
                seen.append(get())

        threads = [threading.Thread(target=run, args=(f,)) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert seen == [1]
        assert get() == 2


class TestRunParts:
    @staticmethod
    def _threads(k):
        # every part waits for all k: they can only pass if they run at once
        barrier = threading.Barrier(k, timeout=30)

        def run(i):
            barrier.wait()
            return i, threading.get_ident()

        return nc.run_parts(run, k)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_part_zero_on_the_caller_the_rest_on_their_own_threads(self, k):
        out = self._threads(k)
        assert [i for i, _ in out] == list(range(k))
        idents = [ident for _, ident in out]
        assert idents[0] == threading.get_ident()
        assert len(set(idents)) == k

    def test_one_part_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool for one part")

        monkeypatch.setattr(nc, "ThreadPoolExecutor", no_pool)
        assert self._threads(1) == [(0, threading.get_ident())]

    @pytest.mark.parametrize("failing", [0, 2])
    def test_a_failing_part_raises_after_all_parts_end(self, failing):
        done = []

        def run(i):
            if i == failing:
                raise ValueError(i)
            done.append(i)

        with pytest.raises(ValueError):
            nc.run_parts(run, 3)
        assert sorted(done) == sorted({0, 1, 2} - {failing})
