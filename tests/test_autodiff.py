"""Reverse-mode tape: forward values, backward rules, finite-difference checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transgcn.autodiff as ad
import transgcn.kg as kg_module
import unfused
from transgcn.encoder import Assumption
from transgcn.errors import NumericError, ShapeError, StateError
from transgcn.kg import build_graph, build_index
from unfused import score_triples as unfused_score_triples


def unfused_triple_scores(entities, relations, heads, rels, tails, rotation, norm):
    assumption = Assumption.ROTATION if rotation else Assumption.TRANSLATION
    return unfused_score_triples(entities, relations, heads, rels, tails, assumption, norm)


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
        assert t.grad is None  # made on the first accumulation, not at construction
        assert ad.tensor(np.ones((2, 2))).grad is None
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.scale(t, 3.0))
        assert t.grad is None
        ad.backward(tape, loss)
        np.testing.assert_array_equal(t.grad, [[3.0, 3.0]])


class TestForwardValues:
    def test_add(self):
        out = ad.add(ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.values, [[4.0, 6.0]])

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

    def test_result_gradients_allocated_on_first_use(self):
        a = ad.tensor([[1.0, -2.0]], requires_grad=True)
        with ad.Tape() as tape:
            scaled = ad.scale(a, 2.0)
            unused = ad.relu(a)
            loss = ad.sum_all(scaled)
        assert scaled.grad is None and loss.grad is None
        ad.backward(tape, loss)
        np.testing.assert_array_equal(scaled.grad, [[1.0, 1.0]])
        assert unused.grad is None  # never reached by the loss
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0]])

    def test_shared_gradient_is_not_aliased(self):
        # add hands one gradient array to both inputs; each must own a copy
        a = ad.tensor([[1.0]], requires_grad=True)
        with ad.Tape() as tape:
            x, y = ad.scale(a, 1.0), ad.scale(a, 1.0)
            s = ad.add(x, y)
            loss = ad.sum_all(ad.add(ad.scale(x, 3.0), s))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [[4.0]])
        np.testing.assert_array_equal(y.grad, [[1.0]])
        np.testing.assert_array_equal(a.grad, [[5.0]])


class TestBackwardRules:
    def test_sum_gradient_is_ones(self):
        x = ad.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

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
        for expr in (
            lambda v: weighted_sum(ad.add(v[0], v[1]), np.random.default_rng(9)),
            lambda v: weighted_sum(ad.sub(v[0], v[1]), np.random.default_rng(9)),
            lambda v: weighted_sum(ad.hadamard(v[0], v[1]), np.random.default_rng(9)),
        ):
            check_op_gradients(expr, [a, b])

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
            ad.add(ad.tensor(np.ones((1, 3))), ad.tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.hadamard])
    @pytest.mark.parametrize("shape", [(1, 3), (1, 1)])
    def test_elementwise_ops_take_equal_shapes_only(self, op, shape):
        # no operand broadcasts, not even a single row or a 1x1 constant
        with pytest.raises(ShapeError) as err:
            op(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones(shape)))
        assert f"{op.__name__}: shapes (2, 3) and {shape} differ" in str(err.value)

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

    def test_loss_from_another_tape_rejected(self):
        x = ad.tensor([[1.0]], requires_grad=True)
        with ad.Tape():
            other = ad.sum_all(x)
        with ad.Tape() as tape:
            ad.sum_all(ad.scale(x, 2.0))
        with pytest.raises(StateError):
            ad.backward(tape, other)


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


def neighbor_graph():
    """Edges (file order) with a duplicated edge, a self-loop, entity e5 of
    degree 0 (it appears only in the test split), and six edges ending at e0
    and one leaving it, so that e0's run in the destination walk spans chunks
    of four edges."""
    train = [
        ("e1", "r0", "e0"), ("e2", "r1", "e0"), ("e1", "r0", "e0"), ("e3", "r2", "e0"),
        ("e2", "r2", "e2"), ("e4", "r1", "e0"), ("e0", "r0", "e3"), ("e3", "r1", "e0"),
        ("e4", "r2", "e1"), ("e2", "r0", "e1"),
    ]
    kg = build_graph(train, [], [("e5", "r0", "e1")])
    return kg, build_index(kg)


def unfused_neighbor_sum(entities, relations, train, rotation):
    """Reference composition over (E, 3) train rows: per-edge gathers,
    compose, segment sums."""
    h, r, t = train.T
    heads = ad.gather_rows(entities, h)
    rels = ad.gather_rows(relations, r)
    tails = ad.gather_rows(entities, t)
    if rotation:
        est_in = ad.complex_hadamard(heads, rels)
        est_out = ad.complex_hadamard(tails, ad.complex_conjugate(rels))
    else:
        est_in, est_out = ad.add(heads, rels), ad.sub(tails, rels)
    n = entities.rows
    return ad.add(ad.segment_sum(est_in, t, n), ad.segment_sum(est_out, h, n))


def random_neighbor_graph():
    """300 random edges over 40 entities and 5 relations."""
    rng = np.random.default_rng(5)
    rows = [(f"e{rng.integers(40)}", f"r{rng.integers(5)}", f"e{rng.integers(40)}")
            for _ in range(300)]
    kg = build_graph(rows, [], [])
    return kg, build_index(kg)


def fused_values_and_gradients(op, ent, rel, w, *args):
    """``op(ent, rel, *args)`` and the entity and relation gradients of sum(w * op)."""
    e, r = ad.tensor(ent, requires_grad=True), ad.tensor(rel, requires_grad=True)
    with ad.Tape() as tape:
        out = op(e, r, *args)
        loss = ad.sum_all(ad.hadamard(out, ad.tensor(w)))
    ad.backward(tape, loss)
    return out.values, e.grad, r.grad


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(kg_module, "CHUNK", 4)  # before the index is built


class TestNeighborSum:
    def test_a_run_spans_chunks(self, small_chunks):
        kg, index = neighbor_graph()
        ends = unfused.walk_keys(index.by_dst)
        # e0's six incoming and one outgoing edge cross the boundary between chunks of four
        run = np.flatnonzero(ends == kg.entity_names.index("e0"))
        assert run.size == 7 and run[0] // 4 != run[-1] // 4

    @pytest.mark.parametrize("rotation", [False, True])
    def test_gradients_match_finite_differences(self, rotation, small_chunks):
        kg, index = neighbor_graph()
        rng = np.random.default_rng(12)
        ent = rng.standard_normal((kg.num_entities, 4))
        rel = rng.standard_normal((kg.num_relations, 4))
        check_op_gradients(
            lambda v: weighted_sum(ad.neighbor_sum(v[0], v[1], index, rotation),
                                   np.random.default_rng(13)),
            [ent, rel],
        )

    @pytest.mark.parametrize("rotation", [False, True])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_equals_unfused_composition(self, rotation, chunked, monkeypatch):
        if chunked:
            monkeypatch.setattr(kg_module, "CHUNK", 3)
        kg, index = random_neighbor_graph()
        rng = np.random.default_rng(6)
        ent = rng.standard_normal((kg.num_entities, 6))
        rel = rng.standard_normal((kg.num_relations, 6))
        w = rng.standard_normal((kg.num_entities, 6))
        results = [fused_values_and_gradients(ad.neighbor_sum, ent, rel, w, index, rotation),
                   fused_values_and_gradients(unfused_neighbor_sum, ent, rel, w, kg.train,
                                              rotation)]
        for fused, reference in zip(*results):
            np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("graph", [neighbor_graph, random_neighbor_graph])
    @pytest.mark.parametrize("chunk", [3, 4, kg_module.CHUNK])
    @pytest.mark.parametrize("rotation", [False, True])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_same_bits_as_the_split_half_chunk_loop(self, graph, chunk, rotation, dim,
                                                    monkeypatch):
        # neighbor_graph has a degree-0 entity, a self-loop, a duplicate edge and
        # a destination whose seven edges span two chunks of four, three of three
        monkeypatch.setattr(kg_module, "CHUNK", chunk)
        kg, index = graph()
        rng = np.random.default_rng(chunk + dim)
        ent = rng.standard_normal((kg.num_entities, dim))
        rel = rng.standard_normal((kg.num_relations, dim))
        w = rng.standard_normal((kg.num_entities, dim))
        fused = fused_values_and_gradients(ad.neighbor_sum, ent, rel, w, index, rotation)
        reference = unfused.neighbor_sum_and_gradients(ent, rel, kg.train, rotation, w)
        for got, want in zip(fused, reference):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rotation", [False, True])
    def test_degree_zero_self_loop_and_duplicate(self, rotation, small_chunks):
        kg, index = neighbor_graph()
        rng = np.random.default_rng(3)
        ent = rng.standard_normal((kg.num_entities, 4))
        rel = rng.standard_normal((kg.num_relations, 4))
        out = ad.neighbor_sum(ad.tensor(ent), ad.tensor(rel), index, rotation).values
        e = {name: i for i, name in enumerate(kg.entity_names)}
        r = {name: i for i, name in enumerate(kg.relation_names)}

        def compose(v, rr, inverse):
            if not rotation:
                return v - rr if inverse else v + rr
            z = (v[:2] + 1j * v[2:]) * (np.conj(rr[:2] + 1j * rr[2:]) if inverse
                                        else rr[:2] + 1j * rr[2:])
            return np.concatenate([z.real, z.imag])

        np.testing.assert_array_equal(out[e["e5"]], np.zeros(4))
        # e2: a self-loop under r2 (both directions) plus two outgoing edges
        want = (compose(ent[e["e2"]], rel[r["r2"]], False)
                + compose(ent[e["e2"]], rel[r["r2"]], True)
                + compose(ent[e["e0"]], rel[r["r1"]], True)
                + compose(ent[e["e1"]], rel[r["r0"]], True))
        np.testing.assert_allclose(out[e["e2"]], want, atol=1e-12)
        # e1 -r0-> e0 appears twice and counts twice, toward e0 and toward e1
        parts = [compose(ent[e[h]], rel[r[rr]], False)
                 for h, rr in (("e1", "r0"), ("e2", "r1"), ("e1", "r0"), ("e3", "r2"),
                               ("e4", "r1"), ("e3", "r1"))]
        parts.append(compose(ent[e["e3"]], rel[r["r0"]], True))
        np.testing.assert_allclose(out[e["e0"]], np.sum(parts, axis=0), atol=1e-12)

    def test_shape_errors(self):
        kg, index = neighbor_graph()
        ent = ad.tensor(np.ones((kg.num_entities, 4)))
        with pytest.raises(ShapeError):
            ad.neighbor_sum(ent, ad.tensor(np.ones((kg.num_relations, 2))), index, False)
        with pytest.raises(ShapeError):
            ad.neighbor_sum(ad.tensor(np.ones((2, 4))), ad.tensor(np.ones((3, 4))), index, False)
        odd = ad.tensor(np.ones((kg.num_entities, 3)))
        with pytest.raises(ShapeError):
            ad.neighbor_sum(odd, ad.tensor(np.ones((kg.num_relations, 3))), index, True)

    @pytest.mark.parametrize("rotation", [False, True])
    @pytest.mark.parametrize("extra", [1, -1])
    def test_refuses_a_relation_table_the_index_does_not_cover(self, rotation, extra):
        # with R + 1 rows, inverse id R + r would read the forward row r + 1
        kg, index = neighbor_graph()
        ent = ad.tensor(np.ones((kg.num_entities, 4)))
        rel = ad.tensor(np.ones((kg.num_relations + extra, 4)))
        with pytest.raises(ShapeError, match="relations"):
            ad.neighbor_sum(ent, rel, index, rotation)


def unfused_graph_conv(entities, relations, index, w0, rotation):
    assumption = Assumption.ROTATION if rotation else Assumption.TRANSLATION
    return unfused.aggregate_messages(entities, relations, index, w0, assumption)


class TestGraphConv:
    @pytest.mark.parametrize("rotation", [False, True])
    def test_gradients_match_finite_differences(self, rotation, small_chunks):
        kg, index = neighbor_graph()
        rng = np.random.default_rng(31)
        arrays = [rng.standard_normal((kg.num_entities, 4)),
                  rng.standard_normal((kg.num_relations, 4)), rng.standard_normal((4, 4))]
        check_op_gradients(
            lambda v: weighted_sum(ad.graph_conv(v[0], v[1], index, v[2], rotation),
                                   np.random.default_rng(32)),
            arrays,
        )

    @pytest.mark.parametrize("graph", [neighbor_graph, random_neighbor_graph])
    @pytest.mark.parametrize("chunk", [3, kg_module.CHUNK])
    @pytest.mark.parametrize("rotation", [False, True])
    def test_same_bits_as_the_unfused_chain(self, graph, chunk, rotation, monkeypatch):
        # the entities also reach the loss directly, so three gradients add up in
        # them and the order of the last two shows in the bits
        monkeypatch.setattr(kg_module, "CHUNK", chunk)
        kg, index = graph()
        rng = np.random.default_rng(chunk)
        arrays = [rng.standard_normal((kg.num_entities, 6)),
                  rng.standard_normal((kg.num_relations, 6)), rng.standard_normal((6, 6))]
        w = ad.tensor(rng.standard_normal((kg.num_entities, 6)))
        results = []
        for op in (ad.graph_conv, unfused_graph_conv):
            e, r, w0 = (ad.tensor(a, requires_grad=True) for a in arrays)
            with ad.Tape() as tape:
                out = op(e, r, index, w0, rotation)
                loss = ad.sum_all(ad.hadamard(ad.add(out, e), w))
            ad.backward(tape, loss)
            results.append((out.values, e.grad, r.grad, w0.grad))
        assert not results[0][0].all()  # the relu zeroes some rows' coordinates
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_refuses_a_w0_that_is_not_d_by_d(self):
        kg, index = neighbor_graph()
        ent = ad.tensor(np.ones((kg.num_entities, 4)))
        rel = ad.tensor(np.ones((kg.num_relations, 4)))
        for shape in [(4, 2), (2, 4)]:
            with pytest.raises(ShapeError, match="w0"):
                ad.graph_conv(ent, rel, index, ad.tensor(np.ones(shape)), False)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_names_the_step_whose_result_is_not_finite(self):
        kg, index = neighbor_graph()
        ent = ad.tensor(np.full((kg.num_entities, 4), 1e300))
        rel = ad.tensor(np.ones((kg.num_relations, 4)))
        with pytest.raises(NumericError, match="matmul"):
            ad.graph_conv(ent, rel, index, ad.tensor(np.full((4, 4), 1e10)), False)


def triple_batch(rng, num_entities, num_relations, size):
    """Random id triples with repeated heads, relations and tails and some h == t."""
    h = rng.integers(num_entities, size=size)
    t = rng.integers(num_entities, size=size)
    t[::4] = h[::4]
    return h, rng.integers(num_relations, size=size), t


@pytest.fixture
def small_triple_chunks(monkeypatch):
    monkeypatch.setattr(kg_module, "CHUNK", 3)


class TestTripleScores:
    @pytest.mark.parametrize("rotation", [False, True])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_gradients_match_finite_differences(self, rotation, norm, small_triple_chunks):
        rng = np.random.default_rng(21)
        ent, rel = rng.standard_normal((5, 4)), rng.standard_normal((3, 4))
        h, r, t = triple_batch(rng, 5, 3, 8)  # three chunks of three, two and three rows
        check_op_gradients(
            lambda v: weighted_sum(ad.triple_scores(v[0], v[1], h, r, t, rotation, norm),
                                   np.random.default_rng(22)),
            [ent, rel],
        )

    @pytest.mark.parametrize("rotation", [False, True])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_equals_unfused_chain(self, rotation, norm, chunked, monkeypatch):
        if chunked:
            monkeypatch.setattr(kg_module, "CHUNK", 7)
        rng = np.random.default_rng(23)
        ent, rel = rng.standard_normal((30, 6)), rng.standard_normal((4, 6))
        h, r, t = triple_batch(rng, 30, 4, 100)
        w = ad.tensor(rng.uniform(0.5, 1.5, size=(100, 1)))
        results = []
        for op in (ad.triple_scores, unfused_triple_scores):
            e, rr = ad.tensor(ent, requires_grad=True), ad.tensor(rel, requires_grad=True)
            with ad.Tape() as tape:
                out = op(e, rr, h, r, t, rotation, norm)
                loss = ad.sum_all(ad.hadamard(out, w))
            ad.backward(tape, loss)
            results.append((out.values, e.grad, rr.grad))
        (fused, ge, gr), (chain, ue, ur) = results
        assert np.array_equal(fused, chain)
        np.testing.assert_allclose(ge, ue, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gr, ur, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [3, 4, kg_module.CHUNK])
    @pytest.mark.parametrize("rotation", [False, True])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_same_bits_as_the_split_half_chunk_loop(self, chunk, rotation, norm, dim,
                                                    monkeypatch):
        monkeypatch.setattr(kg_module, "CHUNK", chunk)
        rng = np.random.default_rng(chunk + dim)
        ent, rel = rng.standard_normal((30, dim)), rng.standard_normal((4, dim))
        h, r, t = triple_batch(rng, 30, 4, 300)
        w = rng.uniform(0.5, 1.5, size=(300, 1))
        fused = fused_values_and_gradients(ad.triple_scores, ent, rel, w, h, r, t, rotation, norm)
        reference = unfused.triple_scores_and_gradients(ent, rel, h, r, t, rotation, norm, w)
        for got, want in zip(fused, reference):
            assert np.array_equal(got, want)

    def test_memory_does_not_grow_with_the_batch(self):
        rng = np.random.default_rng(25)
        ent = ad.tensor(rng.standard_normal((200, 64)), requires_grad=True)
        rel = ad.tensor(rng.standard_normal((10, 64)), requires_grad=True)
        peaks = []
        for size in (2048, 8192):
            h, r, t = triple_batch(rng, 200, 10, size)
            tracemalloc.start()
            try:
                with ad.Tape() as tape:
                    loss = ad.sum_all(ad.triple_scores(ent, rel, h, r, t, True, "l1"))
                    ad.backward(tape, loss)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # an unfused chain keeps several batch x 64 arrays, so its peak grows 4x
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_rejects_bad_inputs(self):
        ent, rel = ad.tensor(np.ones((3, 4))), ad.tensor(np.ones((2, 4)))
        with pytest.raises(ValueError, match="unknown norm"):
            ad.triple_scores(ent, rel, [0], [0], [1], False, "l3")
        with pytest.raises(IndexError):
            ad.triple_scores(ent, rel, [0], [2], [1], False, "l1")
        with pytest.raises(IndexError):
            ad.triple_scores(ent, rel, [0], [0], [-1], False, "l1")
        with pytest.raises(ShapeError):
            ad.triple_scores(ent, rel, [0, 1], [0], [1], False, "l1")
        with pytest.raises(ShapeError):
            ad.triple_scores(ent, ad.tensor(np.ones((2, 2))), [0], [0], [1], False, "l1")
        with pytest.raises(ShapeError):
            odd = ad.tensor(np.ones((3, 3)))
            ad.triple_scores(odd, odd, [0], [0], [1], True, "l1")
