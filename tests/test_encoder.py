"""Graph convolution over homogenized neighborhoods."""

import tracemalloc

import numpy as np
import pytest

import transgcn.autodiff as ad
from transgcn.encoder import (
    Assumption,
    LayerParams,
    ModelState,
    aggregate_messages,
    encode,
    encode_arrays,
    materialize_relations,
)
from transgcn.errors import ShapeError
from transgcn.kg import NEIGHBOR_CHUNK, KnowledgeGraph, build_graph, build_index

RESET = 1e-12


def reference_encode(entity, rel_params, layers, assumption, kg):
    """Straight-line per-entity loop encoder used as the independent oracle.

    Neighbor lists come from the graph's train triples, not from the index
    that the encoder under test reads.
    """
    incoming = [[] for _ in range(kg.num_entities)]
    outgoing = [[] for _ in range(kg.num_entities)]
    for h, r, t in kg.train:
        outgoing[h].append((t, r))
        incoming[t].append((h, r))
    V = entity.copy()
    if assumption is Assumption.ROTATION:
        R = np.concatenate([np.cos(rel_params), np.sin(rel_params)], axis=1)
    else:
        R = rel_params.copy()
    k = R.shape[1] // 2

    def compose_in(v, r):
        if assumption is Assumption.TRANSLATION:
            return v + r
        vr, vi, rr, ri = v[:k], v[k:], r[:k], r[k:]
        return np.concatenate([vr * rr - vi * ri, vr * ri + vi * rr])

    def compose_out(v, r):
        if assumption is Assumption.TRANSLATION:
            return v - r
        vr, vi, rr, ri = v[:k], v[k:], r[:k], r[k:]
        return np.concatenate([vr * rr + vi * ri, -vr * ri + vi * rr])

    for w0, w1 in layers:
        new_v = np.zeros_like(V)
        for i in range(V.shape[0]):
            acc = np.zeros(V.shape[1])
            for j, rel in incoming[i]:
                acc += compose_in(V[j], R[rel])
            for j, rel in outgoing[i]:
                acc += compose_out(V[j], R[rel])
            c = len(incoming[i]) + len(outgoing[i])
            msg = (acc / c) @ w0 if c else np.zeros(V.shape[1])
            new_v[i] = np.maximum(msg + V[i], 0.0)
        new_r = np.maximum(R @ w1, 0.0)
        if assumption is Assumption.ROTATION:
            re, im = new_r[:, :k], new_r[:, k:]
            mod = np.hypot(re, im)
            reset = mod < RESET
            safe = np.where(reset, 1.0, mod)
            new_r = np.concatenate(
                [np.where(reset, 1.0, re / safe), np.where(reset, 0.0, im / safe)], axis=1
            )
        V, R = new_v, new_r
    return V, R


def random_state(rng, n_ent, n_rel, d, layers, assumption, noise=0.01):
    entity = rng.uniform(-1, 1, size=(n_ent, d))
    if assumption is Assumption.ROTATION:
        rel = rng.uniform(0, 2 * np.pi, size=(n_rel, d // 2))
    else:
        rel = rng.uniform(-1, 1, size=(n_rel, d))
    layer_list = [
        LayerParams(
            w0=ad.tensor(np.eye(d) + rng.uniform(-noise, noise, size=(d, d)), requires_grad=True),
            w1=ad.tensor(np.eye(d) + rng.uniform(-noise, noise, size=(d, d)), requires_grad=True),
        )
        for _ in range(layers)
    ]
    return ModelState(
        assumption=assumption,
        entity_embed=ad.tensor(entity, requires_grad=True),
        relation_params=ad.tensor(rel, requires_grad=True),
        layers=layer_list,
    )


def random_graph(rng, n_ent, n_rel, n_edges):
    rows = [
        (f"e{rng.integers(n_ent)}", f"r{rng.integers(n_rel)}", f"e{rng.integers(n_ent)}")
        for _ in range(n_edges)
    ]
    # anchor the vocab so every id exists even if unsampled
    rows += [(f"e{i}", "r0", f"e{(i + 1) % n_ent}") for i in range(n_ent)]
    for r in range(n_rel):
        rows.append(("e0", f"r{r}", "e1"))
    kg = build_graph(rows, [], [])
    return kg, build_index(kg)


class TestHandWorkedExample:
    def test_two_edge_chain_translation(self):
        # X has incoming (A,r) and outgoing (B,s); W0 = W1 = I, c(X) = 2
        kg = build_graph([("A", "r", "X"), ("X", "s", "B")], [], [])
        index = build_index(kg)
        assert kg.entity_names == ["A", "X", "B"]
        state = ModelState(
            assumption=Assumption.TRANSLATION,
            entity_embed=ad.tensor([[1.0, 0.0], [3.0, 3.0], [0.0, 2.0]]),
            relation_params=ad.tensor([[0.5, 0.5], [1.0, -1.0]]),
            layers=[LayerParams(w0=ad.tensor(np.eye(2)), w1=ad.tensor(np.eye(2)))],
        )
        entities, relations = encode(state, index)
        # m_X = ((v_A + r) + (v_B - s)) / 2 = [0.25, 1.75]; v_X' = relu(m + v)
        np.testing.assert_allclose(
            entities.values, [[3.5, 2.5], [3.25, 4.75], [4.0, 4.0]], atol=1e-12
        )
        np.testing.assert_allclose(relations.values, [[0.5, 0.5], [1.0, 0.0]], atol=1e-12)


class TestAgainstReference:
    @pytest.mark.parametrize("assumption", [Assumption.TRANSLATION, Assumption.ROTATION])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_straight_line_loops(self, assumption, layers):
        rng = np.random.default_rng(17)
        for _ in range(3):
            kg, index = random_graph(rng, n_ent=9, n_rel=3, n_edges=25)
            state = random_state(rng, kg.num_entities, kg.num_relations, 8, layers, assumption)
            got_v, got_r = encode_arrays(state, index)
            want_v, want_r = reference_encode(
                state.entity_embed.values,
                state.relation_params.values,
                [(l.w0.values, l.w1.values) for l in state.layers],
                assumption,
                kg,
            )
            np.testing.assert_allclose(got_v, want_v, atol=1e-9)
            np.testing.assert_allclose(got_r, want_r, atol=1e-9)


class TestZeroLayers:
    def test_translation_returns_layer_zero(self):
        kg = build_graph([("A", "r", "B")], [], [])
        index = build_index(kg)
        state = random_state(np.random.default_rng(0), 2, 1, 4, 0, Assumption.TRANSLATION)
        entities, relations = encode(state, index)
        assert entities is state.entity_embed
        np.testing.assert_array_equal(relations.values, state.relation_params.values)

    def test_rotation_materializes_phases(self):
        kg = build_graph([("A", "r", "B")], [], [])
        index = build_index(kg)
        state = random_state(np.random.default_rng(1), 2, 1, 4, 0, Assumption.ROTATION)
        _, relations = encode(state, index)
        theta = state.relation_params.values
        np.testing.assert_array_equal(
            relations.values, np.concatenate([np.cos(theta), np.sin(theta)], axis=1)
        )


class TestStructuralProperties:
    def test_isolated_entity_gets_zero_message(self):
        kg = build_graph([("A", "r", "B")], [("C", "r", "A")], [])  # C is train-isolated
        index = build_index(kg)
        state = random_state(np.random.default_rng(2), 3, 1, 4, 1, Assumption.TRANSLATION)
        entities, _ = encode_arrays(state, index)
        c = kg.entity_names.index("C")
        np.testing.assert_allclose(
            entities[c], np.maximum(state.entity_embed.values[c], 0.0), atol=1e-12
        )

    def test_triple_order_invariance(self):
        rng = np.random.default_rng(3)
        kg, index = random_graph(rng, 8, 3, 30)
        state = random_state(rng, kg.num_entities, kg.num_relations, 6, 2, Assumption.TRANSLATION)
        v1, r1 = encode_arrays(state, index)
        perm = rng.permutation(len(kg.train))
        shuffled = build_index(
            type(kg)(
                entity_names=kg.entity_names,
                relation_names=kg.relation_names,
                train=kg.train[perm],
                valid=[],
                test=[],
            )
        )
        v2, r2 = encode_arrays(state, shuffled)
        np.testing.assert_allclose(v1, v2, atol=1e-9)
        np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_message_locality_on_path(self):
        # path a -> b -> c -> d: zeroing d cannot change a after one layer
        rows = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")]
        kg = build_graph(rows, [], [])
        index = build_index(kg)
        rng = np.random.default_rng(4)
        base = rng.uniform(0.5, 1.5, size=(4, 4))  # positive keeps relu active
        rel = rng.uniform(0.01, 0.05, size=(1, 4))

        def run(embed, layers):
            state = ModelState(
                assumption=Assumption.TRANSLATION,
                entity_embed=ad.tensor(embed),
                relation_params=ad.tensor(rel),
                layers=[
                    LayerParams(w0=ad.tensor(np.eye(4)), w1=ad.tensor(np.eye(4)))
                    for _ in range(layers)
                ],
            )
            return encode_arrays(state, index)[0]

        zeroed = base.copy()
        zeroed[kg.entity_names.index("c")] = 0.0  # two hops from a
        a = kg.entity_names.index("a")
        np.testing.assert_array_equal(run(base, 1)[a], run(zeroed, 1)[a])
        assert np.abs(run(base, 2)[a] - run(zeroed, 2)[a]).max() > 1e-9

    def test_rotation_relations_stay_unit_modulus(self):
        rng = np.random.default_rng(5)
        kg, index = random_graph(rng, 8, 4, 30)
        state = random_state(rng, kg.num_entities, kg.num_relations, 8, 3, Assumption.ROTATION)
        _, relations = encode_arrays(state, index)
        k = relations.shape[1] // 2
        np.testing.assert_allclose(
            np.hypot(relations[:, :k], relations[:, k:]), 1.0, atol=1e-12
        )

    def test_gradients_reach_all_parameters(self):
        rng = np.random.default_rng(6)
        kg, index = random_graph(rng, 7, 3, 25)
        state = random_state(rng, kg.num_entities, kg.num_relations, 6, 2, Assumption.ROTATION)
        with ad.Tape() as tape:
            entities, relations = encode(state, index)
            loss = ad.sum_all(ad.add(ad.row_l2_norm(entities), ad.tensor(np.zeros((7, 1)))))
            ad.backward(tape, loss)
        assert np.abs(state.entity_embed.grad).sum() > 0
        for layer in state.layers:
            assert np.abs(layer.w0.grad).sum() > 0


class TestValidation:
    def test_mismatched_w0_rejected(self):
        kg = build_graph([("A", "r", "B")], [], [])
        index = build_index(kg)
        state = ModelState(
            assumption=Assumption.TRANSLATION,
            entity_embed=ad.tensor(np.ones((2, 4))),
            relation_params=ad.tensor(np.ones((1, 4))),
            layers=[LayerParams(w0=ad.tensor(np.ones((4, 3))), w1=ad.tensor(np.eye(4)))],
        )
        with pytest.raises(ShapeError):
            encode(state, index)

    def test_rotation_needs_even_width(self):
        kg = build_graph([("A", "r", "B")], [], [])
        index = build_index(kg)
        state = ModelState(
            assumption=Assumption.ROTATION,
            entity_embed=ad.tensor(np.ones((2, 5))),
            relation_params=ad.tensor(np.ones((1, 2))),
            layers=[],
        )
        with pytest.raises(ShapeError):
            encode(state, index)

    def test_relation_width_checked(self):
        kg = build_graph([("A", "r", "B")], [], [])
        index = build_index(kg)
        state = ModelState(
            assumption=Assumption.ROTATION,
            entity_embed=ad.tensor(np.ones((2, 4))),
            relation_params=ad.tensor(np.ones((1, 4))),  # should be d/2 phases
            layers=[],
        )
        with pytest.raises(ShapeError):
            encode(state, index)

    def test_entity_count_must_match_index(self):
        kg = build_graph([("A", "r", "B"), ("B", "r", "C")], [], [])
        index = build_index(kg)
        state = random_state(np.random.default_rng(0), 2, 1, 4, 1, Assumption.TRANSLATION)
        with pytest.raises(ShapeError):
            encode(state, index)


class TestMaterializeRelations:
    def test_translation_passthrough(self):
        state = random_state(np.random.default_rng(7), 3, 2, 4, 0, Assumption.TRANSLATION)
        assert materialize_relations(state) is state.relation_params

    def test_rotation_unit_rows(self):
        state = random_state(np.random.default_rng(8), 3, 2, 6, 0, Assumption.ROTATION)
        rel = materialize_relations(state).values
        np.testing.assert_allclose(np.hypot(rel[:, :3], rel[:, 3:]), 1.0, atol=1e-12)


def test_aggregate_messages_shape():
    kg = build_graph([("A", "r", "B"), ("B", "r", "A")], [], [])
    index = build_index(kg)
    state = random_state(np.random.default_rng(9), 2, 1, 4, 1, Assumption.TRANSLATION)
    m = aggregate_messages(
        state.entity_embed, materialize_relations(state), index, state.layers[0].w0,
        Assumption.TRANSLATION,
    )
    assert m.shape == (2, 4)


def one_layer_peak(edges: int, n: int = 2000, d: int = 16,
                   assumption: Assumption = Assumption.ROTATION) -> int:
    """tracemalloc peak bytes of one one-layer encode forward plus backward.

    The gradient tables that the backward leaves on the state's leaves are not
    counted, so the peak is that of the pass alone."""
    rng = np.random.default_rng(edges)
    ids = rng.integers(n, size=(edges, 3))
    kg = KnowledgeGraph(
        entity_names=[f"e{i}" for i in range(n)], relation_names=["r0", "r1", "r2"],
        train=[(h, r % 3, t) for h, r, t in ids.tolist()], valid=[], test=[],
    )
    index = build_index(kg)
    state = random_state(rng, n, 3, d, 1, assumption)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            entities, _ = encode(state, index)
            loss = ad.sum_all(entities)
        ad.backward(tape, loss)
        leaf_grads = sum(p.grad.nbytes for p in state.parameters().values()
                         if p.grad is not None)  # w1 and relations are not reached
        return tracemalloc.get_traced_memory()[1] - leaf_grads
    finally:
        tracemalloc.stop()


def test_message_passing_memory_does_not_grow_with_edges():
    # an edge x d tensor would grow the peak 3-4x from the first size to
    # the second; entity-sized arrays and fixed chunks keep it flat
    small = one_layer_peak(16 * NEIGHBOR_CHUNK)
    large = one_layer_peak(64 * NEIGHBOR_CHUNK)
    assert large < 1.5 * small, (small, large)


@pytest.mark.parametrize("assumption", list(Assumption))
def test_a_layer_holds_few_entity_tables(assumption):
    # measured 5.4 (translation) and 5.8 (rotation) 2,000 x 32 tables: the
    # layer's output, its scaled sums and relu mask, the output's gradient and
    # at most three more in its backward; the five-op chain held 11.4 and 11.8
    peak = one_layer_peak(8 * NEIGHBOR_CHUNK, d=32, assumption=assumption)
    assert peak < 6.5 * 2000 * 32 * 8, peak / (2000 * 32 * 8)
