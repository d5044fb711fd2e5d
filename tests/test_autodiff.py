"""Reverse-mode tape: forward values, backward rules, finite-difference checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transgcn.autodiff as ad
from transgcn.errors import NumericError, ShapeError, StateError


def fd_gradients(build, arrays, h=1e-6):
    """Central finite differences of a scalar-valued builder, one array at a time.

    ``build`` maps a list of plain arrays to a float loss; used as the
    independent oracle for every backward rule.
    """
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            bumped = [a.copy() for a in arrays]
            bumped[k][idx] = base[idx] + h
            up = build(bumped)
            bumped[k][idx] = base[idx] - h
            down = build(bumped)
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def analytic_gradients(build_expr, arrays):
    leaves = [ad.tensor(a, requires_grad=True) for a in arrays]
    with ad.Tape() as tape:
        loss = build_expr(leaves)
        ad.backward(tape, loss)
    return [leaf.grad.copy() for leaf in leaves], float(loss.values[0, 0])


def check_op_gradients(build_expr, arrays, rtol=1e-6, atol=1e-9):
    """Compare tape gradients against finite differences for one expression."""

    def run_value(plain):
        leaves = [ad.tensor(a) for a in plain]
        return float(build_expr(leaves).values[0, 0])

    got, _ = analytic_gradients(build_expr, arrays)
    want = fd_gradients(run_value, arrays)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=rtol, atol=atol)


def weighted_sum(expr, rng):
    """Reduce to a scalar through fixed random weights so dC is non-uniform."""
    w = ad.tensor(rng.uniform(0.5, 1.5, size=expr.values.shape))
    return ad.sum_all(ad.hadamard(expr, w))


class TestTensorBasics:
    def test_two_dimensional_only(self):
        with pytest.raises(ShapeError):
            ad.tensor(np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            ad.tensor(np.array([[1.0, np.nan]]))
        with pytest.raises(NumericError):
            ad.tensor(np.array([[np.inf]]))

    def test_float64_and_grad_allocation(self):
        t = ad.tensor(np.array([[1, 2]], dtype=np.int32), requires_grad=True)
        assert t.values.dtype == np.float64
        assert t.grad.shape == (1, 2) and not t.grad.any()
        assert ad.tensor(np.ones((2, 2))).grad is None


class TestForwardValues:
    def test_add(self):
        out = ad.add(ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.values, [[4.0, 6.0]])

    def test_sub_broadcast_row(self):
        out = ad.sub(ad.tensor([[1.0, 2.0], [3.0, 4.0]]), ad.tensor([[1.0, 1.0]]))
        np.testing.assert_array_equal(out.values, [[0.0, 1.0], [2.0, 3.0]])

    def test_matmul(self):
        out = ad.matmul(ad.tensor([[1.0, 2.0], [3.0, 4.0]]), ad.tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.values, [[19.0, 22.0], [43.0, 50.0]])

    def test_complex_hadamard(self):
        # (3+4i)(0.6+0.8i) = -1.4 + 4.8i in split-half layout
        out = ad.complex_hadamard(ad.tensor([[3.0, 4.0]]), ad.tensor([[0.6, 0.8]]))
        np.testing.assert_allclose(out.values, [[-1.4, 4.8]], atol=1e-15)

    def test_complex_conjugate(self):
        out = ad.complex_conjugate(ad.tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.values, [[3.0, -4.0]])

    def test_gather_rows_permutation(self):
        m = ad.tensor([[0.0], [1.0], [2.0]])
        out = ad.gather_rows(m, [2, 0, 1])
        np.testing.assert_array_equal(out.values, [[2.0], [0.0], [1.0]])

    def test_segment_sum(self):
        out = ad.segment_sum(ad.tensor([[1.0], [2.0], [4.0]]), [0, 0, 1], 2)
        np.testing.assert_array_equal(out.values, [[3.0], [4.0]])

    def test_segment_sum_empty_segment_is_zero(self):
        out = ad.segment_sum(ad.tensor([[1.0]]), [2], 4)
        np.testing.assert_array_equal(out.values, [[0.0], [0.0], [1.0], [0.0]])

    def test_relu(self):
        out = ad.relu(ad.tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.values, [[0.0, 0.0, 2.0]])

    def test_log_sigmoid_stable_far_negative(self):
        out = ad.log_sigmoid(ad.tensor([[-800.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[-800.0, -np.log(2.0)]], rtol=1e-12)

    def test_scale(self):
        out = ad.scale(ad.tensor([[1.0, 2.0]]), 2.0)
        np.testing.assert_array_equal(out.values, [[2.0, 4.0]])

    def test_row_norms(self):
        np.testing.assert_array_equal(ad.row_l1_norm(ad.tensor([[3.0, -4.0]])).values, [[7.0]])
        np.testing.assert_array_equal(ad.row_l2_norm(ad.tensor([[3.0, -4.0]])).values, [[5.0]])

    def test_phase_embedding(self):
        out = ad.phase_embedding(ad.tensor([[0.0, np.pi / 2]]))
        np.testing.assert_allclose(out.values, [[1.0, 0.0, 0.0, 1.0]], atol=1e-15)

    def test_phase_embedding_unit_modulus_any_phase(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-50.0, 50.0, size=(20, 8))
        out = ad.phase_embedding(ad.tensor(theta)).values
        mod = np.hypot(out[:, :8], out[:, 8:])
        np.testing.assert_allclose(mod, 1.0, atol=1e-12)

    def test_complex_unit_normalize(self):
        out = ad.complex_unit_normalize(ad.tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], rtol=1e-15)

    def test_complex_unit_normalize_resets_tiny_modulus(self):
        # split-half row: coordinate 0 is (0, 0) -> reset to 1+0i; coordinate 1 is (0, 1)
        out = ad.complex_unit_normalize(ad.tensor([[0.0, 0.0, 0.0, 1.0]]))
        np.testing.assert_array_equal(out.values, [[1.0, 0.0, 0.0, 1.0]])
        below = ad.complex_unit_normalize(ad.tensor([[1e-13, 0.0], [1e-11, 0.0]]))
        np.testing.assert_array_equal(below.values, [[1.0, 0.0], [1.0, 0.0]])

    def test_sum_all(self):
        out = ad.sum_all(ad.tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.values, [[10.0]])


class TestRecording:
    def test_ops_outside_tape_record_nothing(self):
        a = ad.tensor([[1.0]], requires_grad=True)
        out = ad.add(a, a)
        assert not out.requires_grad

    def test_constants_record_nothing(self):
        with ad.Tape() as tape:
            ad.add(ad.tensor([[1.0]]), ad.tensor([[2.0]]))
        assert len(tape.records) == 0

    def test_tape_length_counts_ops(self):
        a = ad.tensor([[1.0, 2.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.sum_all(ad.relu(ad.scale(a, 2.0)))
        assert len(tape.records) == 3


class TestBackwardRules:
    def test_sum_gradient_is_ones(self):
        x = ad.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_broadcast_add_sums_rows(self):
        a = ad.tensor(np.zeros((3, 2)), requires_grad=True)
        b = ad.tensor([[1.0, 1.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.add(a, b)))
        np.testing.assert_array_equal(b.grad, [[3.0, 3.0]])

    def test_broadcast_scalar_constant(self):
        a = ad.tensor(np.zeros((2, 3)), requires_grad=True)
        g = ad.tensor([[5.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.sub(a, g)))
        np.testing.assert_array_equal(g.grad, [[-6.0]])

    def test_matmul_frozen_grads(self):
        a = ad.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = ad.tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.matmul(a, b)))
        np.testing.assert_array_equal(a.grad, [[11.0, 15.0], [11.0, 15.0]])
        np.testing.assert_array_equal(b.grad, [[4.0, 4.0], [6.0, 6.0]])

    def test_gather_backward_accumulates_duplicates(self):
        m = ad.tensor(np.zeros((2, 3)), requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.gather_rows(m, [0, 0])))
        np.testing.assert_array_equal(m.grad, [[2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])

    def test_segment_backward_gathers(self):
        rows = ad.tensor(np.zeros((3, 1)), requires_grad=True)
        w = ad.tensor([[2.0], [5.0]])
        with ad.Tape() as tape:
            out = ad.segment_sum(rows, [1, 0, 1], 2)
            ad.backward(tape, ad.sum_all(ad.hadamard(out, w)))
        np.testing.assert_array_equal(rows.grad, [[5.0], [2.0], [5.0]])

    def test_relu_gradient_zero_at_exactly_zero(self):
        x = ad.tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_same_tensor_used_twice_accumulates(self):
        x = ad.tensor([[3.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.hadamard(x, x)))
        np.testing.assert_array_equal(x.grad, [[6.0]])

    def test_conjugate_flips_imaginary_grad(self):
        x = ad.tensor([[1.0, 2.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.complex_conjugate(x)))
        np.testing.assert_array_equal(x.grad, [[1.0, -1.0]])

    def test_grads_accumulate_across_terms(self):
        x = ad.tensor([[1.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.add(ad.scale(x, 2.0), ad.scale(x, 3.0))))
        np.testing.assert_array_equal(x.grad, [[5.0]])


class TestFiniteDifferences:
    """Every backward rule against the central-difference oracle."""

    rng = np.random.default_rng(42)

    def test_add_sub_hadamard(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        row = rng.standard_normal((1, 4))
        for expr in (
            lambda v: weighted_sum(ad.add(v[0], v[1]), np.random.default_rng(9)),
            lambda v: weighted_sum(ad.sub(v[0], v[1]), np.random.default_rng(9)),
            lambda v: weighted_sum(ad.hadamard(v[0], v[1]), np.random.default_rng(9)),
        ):
            check_op_gradients(expr, [a, b])
        check_op_gradients(
            lambda v: weighted_sum(ad.hadamard(v[0], v[1]), np.random.default_rng(9)), [a, row]
        )

    def test_matmul(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((2, 4))
        check_op_gradients(
            lambda v: weighted_sum(ad.matmul(v[0], v[1]), np.random.default_rng(8)), [a, b]
        )

    def test_complex_ops(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
        check_op_gradients(
            lambda v: weighted_sum(ad.complex_hadamard(v[0], v[1]), np.random.default_rng(7)),
            [a, b],
        )
        check_op_gradients(
            lambda v: weighted_sum(ad.complex_conjugate(v[0]), np.random.default_rng(7)), [a]
        )

    def test_gather_and_segment(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 3))
        ids = [3, 0, 0, 2, 1]
        check_op_gradients(
            lambda v: weighted_sum(ad.gather_rows(v[0], ids), np.random.default_rng(6)), [m]
        )
        seg = [2, 0, 2, 1]
        check_op_gradients(
            lambda v: weighted_sum(ad.segment_sum(v[0], seg, 3), np.random.default_rng(6)), [m]
        )

    def test_elementwise_nonlinearities(self):
        rng = np.random.default_rng(5)
        # keep relu inputs away from the kink
        x = rng.uniform(0.2, 2.0, size=(3, 3)) * rng.choice([-1.0, 1.0], size=(3, 3))
        for op in (ad.relu, ad.log_sigmoid):
            check_op_gradients(lambda v, op=op: weighted_sum(op(v[0]), np.random.default_rng(5)), [x])
        check_op_gradients(lambda v: weighted_sum(ad.scale(v[0], -1.7), np.random.default_rng(5)), [x])

    def test_norms_and_softmax(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.2, 2.0, size=(4, 5)) * rng.choice([-1.0, 1.0], size=(4, 5))
        check_op_gradients(lambda v: weighted_sum(ad.row_l1_norm(v[0]), np.random.default_rng(4)), [x])
        check_op_gradients(lambda v: weighted_sum(ad.row_l2_norm(v[0]), np.random.default_rng(4)), [x])

    def test_phase_and_unit_normalize(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(-6.0, 6.0, size=(3, 4))
        check_op_gradients(
            lambda v: weighted_sum(ad.phase_embedding(v[0]), np.random.default_rng(3)), [theta]
        )
        # moduli well above the reset threshold
        z = rng.uniform(0.3, 2.0, size=(3, 6)) * rng.choice([-1.0, 1.0], size=(3, 6))
        check_op_gradients(
            lambda v: weighted_sum(ad.complex_unit_normalize(v[0]), np.random.default_rng(3)), [z]
        )

    def test_composite_expression(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 4))

        def expr(v):
            hidden = ad.relu(ad.matmul(v[0], v[1]))
            return ad.sum_all(ad.row_l2_norm(hidden))

        check_op_gradients(expr, [a, w], rtol=1e-5, atol=1e-8)


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(ad.tensor([[1.0, 2.0]]), ad.tensor([[1.0, 2.0, 3.0]]))
        with pytest.raises(ShapeError):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            # only the second operand may broadcast
            ad.add(ad.tensor(np.ones((1, 3))), ad.tensor(np.ones((2, 3))))

    def test_odd_width_complex_rejected(self):
        with pytest.raises(ShapeError):
            ad.complex_conjugate(ad.tensor(np.ones((1, 3))))

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            ad.gather_rows(ad.tensor(np.ones((2, 2))), [0, 2])
        with pytest.raises(IndexError):
            ad.gather_rows(ad.tensor(np.ones((2, 2))), [-1])

    def test_segment_id_out_of_range(self):
        with pytest.raises(IndexError):
            ad.segment_sum(ad.tensor(np.ones((2, 2))), [0, 3], 3)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_detected_at_op_boundary(self):
        big = ad.tensor([[1e308]])
        with pytest.raises(NumericError):
            ad.scale(big, 10.0)

    def test_backward_needs_scalar(self):
        x = ad.tensor([[1.0, 2.0]], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.relu(x)
            with pytest.raises(ShapeError):
                ad.backward(tape, out)

    def test_backward_twice_rejected(self):
        x = ad.tensor([[1.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(x)
            ad.backward(tape, loss)
            with pytest.raises(StateError):
                ad.backward(tape, loss)

    def test_loss_off_tape_rejected(self):
        x = ad.tensor([[1.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.sum_all(x)
            with pytest.raises(StateError):
                ad.backward(tape, ad.tensor([[1.0]]))


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_segment_sum_conserves_column_totals(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        rows = rng.standard_normal((n, 3))
        seg = rng.integers(0, 5, size=n)
        out = ad.segment_sum(ad.tensor(rows), seg, 5).values
        np.testing.assert_allclose(out.sum(axis=0), rows.sum(axis=0), atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gather_backward_is_scatter_add(self, seed):
        rng = np.random.default_rng(seed)
        m = ad.tensor(rng.standard_normal((6, 2)), requires_grad=True)
        ids = rng.integers(0, 6, size=int(rng.integers(1, 12)))
        w = rng.standard_normal((len(ids), 2))
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(ad.hadamard(ad.gather_rows(m, ids), ad.tensor(w))))
        expected = np.zeros((6, 2))
        for t, i in enumerate(ids):
            expected[i] += w[t]
        np.testing.assert_allclose(m.grad, expected, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_complex_hadamard_modulus_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        a = rng.standard_normal((3, 2 * k))
        b = rng.standard_normal((3, 2 * k))
        out = ad.complex_hadamard(ad.tensor(a), ad.tensor(b)).values
        mod = np.hypot(out[:, :k], out[:, k:])
        np.testing.assert_allclose(
            mod, np.hypot(a[:, :k], a[:, k:]) * np.hypot(b[:, :k], b[:, k:]), rtol=1e-9, atol=1e-12
        )
