"""Optimizer, initialization, schedule, and parameter-accounting tests."""

import dataclasses
import logging
import math
import tracemalloc
import types

import numpy as np
import pytest

import unfused
from transgcn import autodiff as ad
from transgcn import encoder, trainer
from transgcn.checkpoint import to_bytes
from transgcn.encoder import (
    Assumption,
    LayerParams,
    ModelState,
    encode_arrays,
    parameter_shapes,
)
from transgcn.errors import ConfigError, NumericError, ShapeError
from transgcn.evaluator import evaluate
from transgcn.kg import build_graph, build_index
from transgcn.kinship import generate_kinship
from transgcn.objective import score_triples
from transgcn.trainer import (
    TrainConfig,
    TrainingAborted,
    adam_step,
    estimate_peak_bytes,
    init_parameters,
    param_count_report,
    train,
)


@pytest.fixture(scope="module")
def small_kinship():
    return generate_kinship(seed=0, founder_couples=3, valid_size=30, test_size=30)


def random_graph():
    rng = np.random.default_rng(7)
    ents = [f"e{i}" for i in range(30)]
    rels = [f"r{i}" for i in range(4)]

    def draw(k):
        return [
            (ents[rng.integers(30)], rels[rng.integers(4)], ents[rng.integers(30)])
            for _ in range(k)
        ]

    return build_graph(draw(120), draw(15), draw(15))


class TestTrainConfig:
    def test_default_learning_rate(self):
        assert TrainConfig().lr == 0.001

    def test_translation_defaults(self):
        cfg = TrainConfig(assumption="translation")
        assert cfg.gamma == 1.0
        assert cfg.sampling == "vanilla"

    def test_rotation_defaults(self):
        cfg = TrainConfig(assumption="rotation")
        assert cfg.gamma == 12.0
        assert cfg.sampling == "self-adversarial"

    def test_explicit_values_kept(self):
        cfg = TrainConfig(assumption="rotation", gamma=3.0, sampling="vanilla")
        assert cfg.gamma == 3.0
        assert cfg.sampling == "vanilla"

    def test_selfadv_spelling_normalized(self):
        assert TrainConfig(sampling="selfadv").sampling == "self-adversarial"

    def test_assumption_string_coerced(self):
        assert TrainConfig(assumption="rotation").assumption is Assumption.ROTATION

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": -1.0},
            {"layers": -1},
            {"dim": 1},
            {"assumption": "rotation", "dim": 7},
            {"negatives": 0},
            {"epochs": -1},
            {"batch": 0},
            {"eval_every": 0},
            {"pretrain_epochs": -1},
            {"clip": -0.5},
            {"norm": "l3"},
            {"sampling": "importance"},
            {"assumption": "projection"},
            {"gamma": float("inf")},
            {"alpha": -1.0},
            {"lr": float("inf")},
            {"seed": -1},
            {"clip": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_replace_revalidates(self):
        cfg = TrainConfig(dim=8)
        assert cfg.replace(dim=16).dim == 16
        with pytest.raises(ConfigError):
            cfg.replace(lr=0.0)


class TestAdamStep:
    def test_zero_gradient_keeps_parameters(self):
        param = np.array([[1.0, -2.0], [3.0, 0.5]])
        m = np.zeros_like(param)
        v = np.zeros_like(param)
        new = adam_step(param, np.zeros_like(param), (m, v), lr=0.1, t=1)
        assert np.array_equal(new, param)
        assert np.all(m == 0.0) and np.all(v == 0.0)

    def test_zero_gradient_decays_moments(self):
        param = np.array([[1.0]])
        m = np.array([[0.8]])
        v = np.array([[0.4]])
        adam_step(param, np.zeros_like(param), (m, v), lr=0.1, t=5)
        assert m[0, 0] == pytest.approx(0.9 * 0.8, rel=1e-15)
        assert v[0, 0] == pytest.approx(0.999 * 0.4, rel=1e-15)

    def test_constant_gradient_steps_at_lr_times_sign(self):
        # bias correction makes m_hat = g and v_hat = g*g from the first step
        grad = np.array([[0.37, -2.4]])
        param = np.zeros_like(grad)
        m = np.zeros_like(grad)
        v = np.zeros_like(grad)
        lr = 0.005
        for t in range(1, 51):
            new = adam_step(param, grad, (m, v), lr=lr, t=t)
            delta = new - param
            np.testing.assert_allclose(delta, -lr * np.sign(grad), rtol=1e-6)
            param = new

    def test_descends_a_quadratic(self):
        target = np.array([[0.3, -1.2, 2.0]])
        x = np.zeros_like(target)
        m = np.zeros_like(x)
        v = np.zeros_like(x)
        for t in range(1, 801):
            grad = 2.0 * (x - target)
            x = adam_step(x, grad, (m, v), lr=0.05, t=t)
        np.testing.assert_allclose(x, target, atol=1e-3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            adam_step(
                np.zeros((2, 2)),
                np.zeros((2, 3)),
                (np.zeros((2, 2)), np.zeros((2, 2))),
                lr=0.1,
            )

    def test_step_index_must_be_positive(self):
        z = np.zeros((1, 1))
        with pytest.raises(ValueError):
            adam_step(z, z, (z, z), lr=0.1, t=0)

    def test_same_bits_as_the_expression_form(self):
        rng = np.random.default_rng(14)
        param = rng.standard_normal((10, 5))
        m, v = np.zeros((10, 5)), np.zeros((10, 5))  # as train() starts them
        want = [param, (m.copy(), v.copy())]
        for t in range(1, 4):
            grad = rng.standard_normal((10, 5))
            param = adam_step(param, grad, (m, v), lr=0.01, t=t)
            want[0] = unfused.adam_step(want[0], grad, want[1], lr=0.01, t=t)
            # both update the moments they are given, in place; only the parameter is returned
            for got, expected in zip((param, m, v), (want[0], *want[1])):
                assert np.array_equal(got, expected)


class TestInitParameters:
    def test_parameter_shapes_match_init_parameters(self):
        for assumption in Assumption:
            for layers in range(3):
                cfg = TrainConfig(assumption=assumption, dim=8, layers=layers)
                state = init_parameters(cfg, 7, 3, np.random.default_rng(0))
                shapes = [(name, p.shape) for name, p in state.parameters().items()]
                assert shapes == list(parameter_shapes(assumption, 8, layers, 7, 3).items())
        assert parameter_shapes(Assumption.ROTATION, 8, 0, 7, 3)["relation_params"] == (3, 4)
        with pytest.raises(ShapeError, match="even"):
            parameter_shapes(Assumption.ROTATION, 7, 0, 7, 3)

    def test_same_seed_bit_identical(self):
        cfg = TrainConfig(assumption="rotation", dim=8, layers=2)
        a = init_parameters(cfg, 12, 3, np.random.default_rng(4))
        b = init_parameters(cfg, 12, 3, np.random.default_rng(4))
        for (name, pa), pb in zip(a.parameters().items(), b.parameters().values()):
            assert np.array_equal(pa.values, pb.values), name

    def test_different_seed_differs(self):
        cfg = TrainConfig(dim=8)
        a = init_parameters(cfg, 12, 3, np.random.default_rng(4))
        b = init_parameters(cfg, 12, 3, np.random.default_rng(5))
        assert not np.array_equal(a.entity_embed.values, b.entity_embed.values)

    def test_entity_range(self):
        cfg = TrainConfig(dim=16)
        state = init_parameters(cfg, 50, 4, np.random.default_rng(0))
        limit = 6.0 / math.sqrt(16)
        assert np.all(np.abs(state.entity_embed.values) <= limit)

    def test_translation_relations_unit_l1(self):
        cfg = TrainConfig(assumption="translation", dim=16)
        state = init_parameters(cfg, 10, 6, np.random.default_rng(1))
        norms = np.abs(state.relation_params.values).sum(axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_rotation_phases_give_exact_unit_modulus(self):
        cfg = TrainConfig(assumption="rotation", dim=12)
        state = init_parameters(cfg, 10, 6, np.random.default_rng(2))
        phases = state.relation_params.values
        assert phases.shape == (6, 6)
        assert np.all((phases >= 0.0) & (phases < 2.0 * math.pi))
        from transgcn.encoder import materialize_relations

        rel = materialize_relations(state).values
        modulus = np.hypot(rel[:, :6], rel[:, 6:])
        np.testing.assert_allclose(modulus, 1.0, atol=1e-12)

    def test_layer_weights_near_identity(self):
        cfg = TrainConfig(dim=8, layers=3)
        state = init_parameters(cfg, 5, 2, np.random.default_rng(3))
        for layer in state.layers:
            assert np.max(np.abs(layer.w0.values - np.eye(8))) <= 0.01
            assert np.max(np.abs(layer.w1.values - np.eye(8))) <= 0.01

    def test_layer_count_does_not_shift_embedding_draws(self):
        # weights are drawn after embeddings, so L only appends draws
        deep = init_parameters(TrainConfig(dim=8, layers=2), 7, 3, np.random.default_rng(9))
        flat = init_parameters(TrainConfig(dim=8, layers=0), 7, 3, np.random.default_rng(9))
        assert np.array_equal(deep.entity_embed.values, flat.entity_embed.values)
        assert np.array_equal(deep.relation_params.values, flat.relation_params.values)

    def test_near_identity_layer_keeps_translation_scores_correlated(self):
        # relu updates cap the overlap well below a perfect match; measured
        # r on this fixture is 0.74..0.84 across seeds
        kg = random_graph()
        index = build_index(kg)
        heads, rels, tails = kg.train.T
        for seed in range(3):
            cfg = TrainConfig(assumption="translation", dim=32, layers=1, seed=seed)
            state = init_parameters(
                cfg, kg.num_entities, kg.num_relations, np.random.default_rng(seed)
            )
            e1, r1 = encode_arrays(state, index)
            e0, r0 = encode_arrays(dataclasses.replace(state, layers=[]), index)
            deep = score_triples(
                ad.tensor(e1), ad.tensor(r1), heads, rels, tails, cfg.assumption
            ).values.ravel()
            base = score_triples(
                ad.tensor(e0), ad.tensor(r0), heads, rels, tails, cfg.assumption
            ).values.ravel()
            assert np.corrcoef(base, deep)[0, 1] > 0.7


class TestTrain:
    def test_zero_epochs_returns_initialization(self, small_kinship):
        cfg = TrainConfig(assumption="translation", dim=8, layers=1, epochs=0, seed=5)
        ck = train(small_kinship, cfg)
        init_rng = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[0])
        expected = init_parameters(
            cfg, small_kinship.num_entities, small_kinship.num_relations, init_rng
        )
        for (name, got), want in zip(
            ck.state.parameters().items(), expected.parameters().values()
        ):
            assert np.array_equal(got.values, want.values), name
        assert ck.epoch == 0
        assert ck.adam_step == 0
        assert math.isnan(ck.best_valid_mrr)

    def test_deterministic_byte_identical(self, small_kinship):
        cfg = TrainConfig(
            assumption="translation", dim=8, layers=1, epochs=4, batch=64, seed=11
        )
        a = to_bytes(train(small_kinship, cfg))
        b = to_bytes(train(small_kinship, cfg))
        assert a == b

    def test_learns_above_random_model(self, small_kinship):
        kg = small_kinship
        cfg = TrainConfig(
            assumption="translation",
            dim=16,
            layers=0,
            epochs=120,
            batch=64,
            lr=0.01,
            negatives=5,
            eval_every=20,
            seed=2,
        )
        init_rng = np.random.default_rng(np.random.SeedSequence(2).spawn(2)[0])
        state0 = init_parameters(cfg, kg.num_entities, kg.num_relations, init_rng)
        index = build_index(kg)
        e0, r0 = encode_arrays(state0, index)
        random_mrr = evaluate(kg, "valid", e0, r0, cfg.assumption, cfg.norm).mrr
        ck = train(kg, cfg)
        assert ck.best_valid_mrr > random_mrr

    def test_pretraining_phase_matches_flat_run(self, small_kinship):
        deep = TrainConfig(
            assumption="translation",
            dim=8,
            layers=1,
            epochs=4,
            pretrain_epochs=4,
            batch=64,
            seed=3,
        )
        flat = deep.replace(layers=0, pretrain_epochs=0)
        ck_deep = train(small_kinship, deep)
        ck_flat = train(small_kinship, flat)
        assert np.array_equal(
            ck_deep.state.entity_embed.values, ck_flat.state.entity_embed.values
        )
        assert np.array_equal(
            ck_deep.state.relation_params.values, ck_flat.state.relation_params.values
        )

    def test_log_lines_and_monotone_selection(self, small_kinship, caplog):
        cfg = TrainConfig(
            assumption="translation",
            dim=8,
            layers=0,
            epochs=6,
            batch=64,
            lr=0.01,
            eval_every=1,
            seed=4,
        )
        with caplog.at_level(logging.INFO, logger="transgcn.trainer"):
            ck = train(small_kinship, cfg)
        rows = [r.getMessage().split("\t") for r in caplog.records
                if r.name == "transgcn.trainer"]
        assert len(rows) == 6
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6]
        seen_mrrs = [float(r[2]) for r in rows if len(r) == 3]
        assert seen_mrrs, "eval_every=1 must log validation columns"
        # log values are rounded to 6 places; best must match the max of them
        assert ck.best_valid_mrr == pytest.approx(max(seen_mrrs), abs=1e-6)
        assert all(ck.best_valid_mrr >= m - 1e-6 for m in seen_mrrs)

    @pytest.mark.parametrize("sampling", ["vanilla", "self-adversarial"])
    def test_mean_loss_decreases(self, small_kinship, sampling, caplog):
        cfg = TrainConfig(
            assumption="translation",
            dim=16,
            layers=0,
            epochs=50,
            batch=64,
            lr=0.01,
            negatives=5,
            sampling=sampling,
            eval_every=50,
            seed=6,
        )
        with caplog.at_level(logging.INFO, logger="transgcn.trainer"):
            train(small_kinship, cfg)
        losses = [float(r.getMessage().split("\t")[1]) for r in caplog.records
                  if r.name == "transgcn.trainer"]
        assert losses[49] < losses[0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_blowup_aborts_with_last_good(self, small_kinship):
        cfg = TrainConfig(
            assumption="translation",
            dim=8,
            layers=1,
            epochs=3,
            batch=512,
            lr=1e200,
            norm="l2",
            clip=0.0,
            seed=7,
        )
        with pytest.raises(TrainingAborted) as info:
            train(small_kinship, cfg)
        ck = info.value.checkpoint
        for tensor in ck.state.parameters().values():
            assert np.all(np.isfinite(tensor.values))
        assert isinstance(info.value, NumericError)

    def test_warm_start_runs_and_shapes_checked(self, small_kinship, caplog):
        cfg = TrainConfig(assumption="translation", dim=8, layers=1, epochs=2, seed=8)
        first = train(small_kinship, cfg)
        resumed = train(small_kinship, cfg, init_state=first.state)
        assert not np.array_equal(
            resumed.state.entity_embed.values, first.state.entity_embed.values
        )
        with pytest.raises(ConfigError):
            train(small_kinship, cfg.replace(dim=16), init_state=first.state)
        with pytest.raises(ConfigError):
            train(small_kinship, cfg.replace(layers=2), init_state=first.state)
        with pytest.raises(ConfigError):
            train(
                small_kinship,
                TrainConfig(assumption="rotation", dim=8, layers=1, epochs=1),
                init_state=first.state,
            )
        entities, relations, *weights = [p.values for p in first.state.parameters().values()]
        extra = np.vstack([relations, relations[:2]])
        for bad, name in [([entities, relations[:-2]], "relation_params"),
                          ([entities, extra], "relation_params"),
                          ([entities[:-1], relations], "entity_embed")]:
            state = ModelState.from_arrays(first.state.assumption, bad + weights)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="transgcn.trainer"):
                with pytest.raises(ConfigError, match=f"warm-start.*{name}"):
                    train(small_kinship, cfg, init_state=state)
            assert not caplog.records  # refused before the first epoch

    def test_empty_train_split_rejected(self):
        kg = build_graph([], [("a", "r", "b")], [])
        with pytest.raises(ConfigError):
            train(kg, TrainConfig(dim=4, epochs=1))

    def test_no_valid_split_gives_nan_mrr(self):
        kg = build_graph(
            [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")], [], []
        )
        ck = train(kg, TrainConfig(dim=4, layers=0, epochs=2, batch=8, seed=9))
        assert math.isnan(ck.best_valid_mrr)
        assert ck.epoch == 2
        assert ck.adam_step == 2  # one step an epoch, each counted
        assert all(p.grad is None for p in ck.state.parameters().values())

    def test_rotation_smoke(self, small_kinship):
        cfg = TrainConfig(
            assumption="rotation", dim=8, layers=1, epochs=3, batch=64, seed=10
        )
        ck = train(small_kinship, cfg)
        assert ck.state.relation_params.cols == 4
        for tensor in ck.state.parameters().values():
            assert np.all(np.isfinite(tensor.values))


@pytest.mark.parametrize("assumption", ["translation", "rotation"])
@pytest.mark.parametrize("layers", [1, 2])
def test_train_bytes_equal_the_unfused_layer_and_adam(assumption, layers, monkeypatch):
    kg = generate_kinship(seed=3)
    cfg = TrainConfig(assumption=assumption, layers=layers, dim=16, pretrain_epochs=1,
                      epochs=3, batch=512, negatives=4, lr=0.01, eval_every=1, seed=5)
    fused = to_bytes(train(kg, cfg))
    monkeypatch.setattr(encoder, "aggregate_messages", unfused.aggregate_messages)
    monkeypatch.setattr(trainer, "adam_step", unfused.adam_step)
    assert to_bytes(train(kg, cfg)) == fused


class TestParamCountReport:
    def test_worked_basis_saving(self):
        cfg = TrainConfig(assumption="translation", dim=100, layers=1)
        report = param_count_report(cfg, 14541, 237, rgcn_basis_B=2)
        assert report["vs_rgcn_basis_translation"] == 10948

    def test_worked_block_saving(self):
        cfg = TrainConfig(assumption="translation", dim=100, layers=1)
        report = param_count_report(cfg, 14541, 237, rgcn_basis_B=2)
        assert report["vs_rgcn_block_translation"] == 2 * 2 * 237 * 50**2 - 100**2

    def test_toy_own_count(self):
        cfg = TrainConfig(assumption="translation", dim=8, layers=1)
        report = param_count_report(cfg, 104, 10, rgcn_basis_B=2)
        assert report["own"] == 104 * 8 + 10 * 8 + 2 * 64 == 1040

    def test_zero_layers_drop_layer_terms(self):
        cfg = TrainConfig(assumption="translation", dim=8, layers=0)
        report = param_count_report(cfg, 104, 10)
        assert report["layers"] == 0
        assert report["own"] == 104 * 8 + 10 * 8
        assert report["vs_rgcn_basis_translation"] == 0

    def test_rotation_uses_phase_width(self):
        cfg = TrainConfig(assumption="rotation", dim=8, layers=1)
        report = param_count_report(cfg, 104, 10, rgcn_basis_B=2)
        assert report["relations"] == 10 * 4
        assert report["vs_rgcn_basis_rotation"] == (2 - 5) * 64 + 2 * 2 * 10 - 104 * 8

    def test_basis_count_validated(self):
        with pytest.raises(ValueError):
            param_count_report(TrainConfig(dim=8), 10, 2, rgcn_basis_B=0)


@pytest.mark.parametrize("shape", [
    dict(entities=300, edges=3000, assumption="rotation", dim=32, layers=1, batch=256,
         negatives=4),
    dict(entities=600, edges=6000, assumption="translation", dim=64, layers=2, batch=512,
         negatives=8),
])
def test_peak_estimate_bounds_measured_peak(shape):
    shape = dict(shape)
    n, edges = shape.pop("entities"), shape.pop("edges")
    rng = np.random.default_rng(edges)

    def rows(count):
        ids = zip(rng.integers(n, size=count), rng.integers(10, size=count),
                  rng.integers(n, size=count))
        return [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in ids]

    kg = build_graph(rows(edges), rows(60), rows(60))
    config = TrainConfig(epochs=1, seed=0, **shape)
    tracemalloc.start()
    try:
        train(kg, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = estimate_peak_bytes(config, kg.num_entities, kg.num_relations, len(kg.train))
    # measured 2.39 and 2.20 times the peak; edges and fixed chunks dominate these shapes
    assert peak <= estimate < 2.6 * peak, (peak, estimate)


def test_every_step_starts_without_gradients(monkeypatch, small_kinship):
    # each gradient is made by its step's backward and dropped after its Adam
    # update, so no step adds into the one before it
    states = []

    def encode(state, index):
        states.append(state)
        assert all(p.grad is None for p in state.parameters().values())
        return encoder.encode(state, index)

    monkeypatch.setattr(trainer, "encode", encode)
    train(small_kinship, TrainConfig(dim=8, layers=1, pretrain_epochs=1, epochs=2, batch=64))
    assert len(states) > 2
    assert all(p.grad is None for p in states[-1].parameters().values())


def test_one_best_snapshot_is_held_at_a_time(monkeypatch):
    # a zero-layer 20,000 x 64 model whose validation MRR rises every epoch.
    # The peak from the last validation on holds the live parameters and the
    # new snapshot; with the old snapshot still alive while the new one was
    # copied, and zero gradients in both, it was 4 entity tables higher
    n, d = 20_000, 64
    kg = build_graph([(f"e{i}", "r0", f"e{(i + 1) % n}") for i in range(n)],
                     [("e0", "r0", "e2")], [])
    validations = []

    def rising_mrr(*args):
        tracemalloc.reset_peak()  # from here on the peak is this validation's
        validations.append(args[1])
        return types.SimpleNamespace(mrr=float(len(validations)))

    monkeypatch.setattr(trainer, "evaluate", rising_mrr)

    def last_validation_peak(epochs: int) -> int:
        tracemalloc.start()
        try:
            best = train(kg, TrainConfig(dim=d, layers=0, epochs=epochs, eval_every=1,
                                         batch=4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best.epoch == epochs
        assert all(p.grad is None for p in best.state.parameters().values())
        return peak

    one, three = last_validation_peak(1), last_validation_peak(3)
    assert validations == ["valid"] * 4
    assert three - one < n * d * 8, (three - one) / (n * d * 8)


def steps_per_epoch(kg, config):
    return math.ceil(len(kg.train) / config.batch)


def test_best_snapshot_is_independent_of_the_live_run(monkeypatch, small_kinship):
    # validation reads 1, 3, 2: the best is epoch 2's, and epoch 3's updates
    # of the live parameters and moments must not reach it
    def mrrs(values):
        values = iter(values)
        return lambda *args: types.SimpleNamespace(mrr=next(values))

    cfg = TrainConfig(dim=8, layers=1, epochs=3, eval_every=1, batch=64, lr=0.01, seed=12)
    monkeypatch.setattr(trainer, "evaluate", mrrs([1.0, 3.0, 2.0]))
    best = train(small_kinship, cfg)
    monkeypatch.setattr(trainer, "evaluate", mrrs([1.0, 3.0]))
    two = train(small_kinship, cfg.replace(epochs=2))
    assert (best.epoch, best.best_valid_mrr) == (2, 3.0)
    assert best.adam_step == two.adam_step == 2 * steps_per_epoch(small_kinship, cfg)
    for name, p in two.state.parameters().items():
        got = best.state.parameters()[name]
        assert got.values.tobytes() == p.values.tobytes(), name
        assert got.grad is None, name
        assert best.adam_m[name].tobytes() == two.adam_m[name].tobytes(), name
        assert best.adam_v[name].tobytes() == two.adam_v[name].tobytes(), name


def test_warm_start_from_leaves_without_gradients(small_kinship):
    # the warm start builds fresh trainable leaves: the caller's leaves keep
    # their arrays, flags and gradients, and a stale NaN gradient on one of
    # them does not reach the run
    cfg = TrainConfig(dim=8, layers=1, epochs=2, batch=64, seed=13)
    arrays = [p.values for p in init_parameters(
        cfg, small_kinship.num_entities, small_kinship.num_relations,
        np.random.default_rng(0)).parameters().values()]
    plain = [ad.tensor(a) for a in arrays]
    caller = ModelState(cfg.assumption, plain[0], plain[1], [LayerParams(plain[2], plain[3])])
    caller.entity_embed.grad = np.full(caller.entity_embed.shape, np.nan)
    before = [a.copy() for a in arrays]
    ck = train(small_kinship, cfg, init_state=caller)
    assert ck.adam_step == 2 * steps_per_epoch(small_kinship, cfg)
    assert not np.array_equal(ck.state.entity_embed.values, before[0])
    for leaf, kept in zip(caller.parameters().values(), before):
        assert leaf.values.tobytes() == kept.tobytes()
        assert not leaf.requires_grad
    assert np.isnan(caller.entity_embed.grad).all()
    fresh = ModelState.from_arrays(cfg.assumption, [a.copy() for a in before])
    assert to_bytes(train(small_kinship, cfg, init_state=fresh)) == to_bytes(ck)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_clip_refuses_a_gradient_norm_that_is_not_finite(bad):
    params = {name: ad.tensor(np.ones((2, 3)), requires_grad=True) for name in ("a", "b")}
    for p in params.values():
        p.grad = np.ones((2, 3))
    params["b"].grad[1, 2] = bad
    with pytest.raises(NumericError, match="gradient norm is not finite"):
        trainer._clip_gradients(params, 10.0)


def test_a_non_finite_update_aborts_with_the_last_good_values(monkeypatch, small_kinship):
    # one step per epoch; the second step's first update is inf, so the run
    # stops holding the values its first step made
    cfg = TrainConfig(dim=8, layers=1, epochs=2, batch=len(small_kinship.train), seed=15)
    one_step = train(small_kinship, cfg.replace(epochs=1))
    real_adam_step = trainer.adam_step

    def adam_step(param, grad, moments, lr, t=1):
        if t == 2:
            return np.full_like(param, np.inf)
        return real_adam_step(param, grad, moments, lr, t)

    monkeypatch.setattr(trainer, "adam_step", adam_step)
    with pytest.raises(TrainingAborted, match="non-finite values in the update of "
                                              "entity_embed at step 2") as info:
        train(small_kinship, cfg)
    ck = info.value.checkpoint
    assert (ck.epoch, ck.adam_step) == (1, 2)
    for name, p in one_step.state.parameters().items():
        assert ck.state.parameters()[name].values.tobytes() == p.values.tobytes(), name


def test_peak_estimate_scales_one_layer_without_listing_them():
    # the estimate is affine in the layer count, and a claimed million layers
    # is estimated, and so refused, at the cost of one
    def estimate(layers):
        return estimate_peak_bytes(TrainConfig(layers=layers), 104, 10, 1500)

    per_layer = estimate(1) - estimate(0)
    assert estimate(2) == estimate(0) + 2 * per_layer
    tracemalloc.start()
    try:
        huge = estimate(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge == estimate(0) + 10**6 * per_layer
    assert peak < 100_000, peak


def test_an_abort_before_any_best_drops_the_gradients(monkeypatch, small_kinship):
    # a NumericError out of the second step's clip leaves every leaf with a
    # gradient; the checkpoint it carries holds none
    calls, real_clip = [], trainer._clip_gradients

    def clip(params, max_norm):
        calls.append(max_norm)
        if len(calls) == 2:
            raise NumericError("gradient norm is not finite")
        return real_clip(params, max_norm)

    monkeypatch.setattr(trainer, "_clip_gradients", clip)
    with pytest.raises(TrainingAborted) as info:
        train(small_kinship, TrainConfig(dim=8, layers=1, epochs=2, batch=64, seed=14))
    ck = info.value.checkpoint
    assert (ck.epoch, ck.adam_step) == (0, 1)
    assert math.isnan(ck.best_valid_mrr)
    assert all(p.grad is None for p in ck.state.parameters().values())
