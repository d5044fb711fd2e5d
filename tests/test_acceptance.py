"""Shipped-guarantee gate: ten checks, one printed verdict line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to watch the
verdict lines appear as each check completes.  Every check states its own
tolerance and runtime bound; the desk-scale learning check (6) dominates the
wall time at a few minutes.
"""

import os
import time
from pathlib import Path

import numpy as np

from transgcn import autodiff as ad
from transgcn.autodiff import Tape, backward
from transgcn.cli import main
from transgcn.encoder import Assumption, ModelState, encode, encode_arrays
from transgcn.evaluator import evaluate
from transgcn.kg import KnowledgeGraph, build_index, known_triple_set, load_dataset
from transgcn.kinship import generate_kinship
from transgcn.objective import (
    batch_margin_loss,
    batch_self_adv_loss,
    batch_self_adv_weights,
    sample_negatives,
    score_triples,
)
from transgcn.trainer import TrainConfig, init_parameters, param_count_report, train
from transgcn.transform import (
    estimate_from_incoming,
    estimate_from_outgoing,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURE = REPO / "tests" / "data" / "geo50"


def verdict(num, label, ok, detail=""):
    line = f"[{num:2d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _random_kg(rng, num_entities, num_relations, num_train, num_valid=0, num_test=0):
    def draw(n):
        seen = set()
        out = []
        while len(out) < n:
            t = (
                int(rng.integers(num_entities)),
                int(rng.integers(num_relations)),
                int(rng.integers(num_entities)),
            )
            if t not in seen:
                seen.add(t)
                out.append(t)
        return out

    total = draw(num_train + num_valid + num_test)
    return KnowledgeGraph(
        entity_names=[f"e{i}" for i in range(num_entities)],
        relation_names=[f"r{i}" for i in range(num_relations)],
        train=total[:num_train],
        valid=total[num_train : num_train + num_valid],
        test=total[num_train + num_valid :],
    )


def test_01_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    grid = [
        (assumption, sampling, layers, dim)
        for assumption in ("translation", "rotation")
        for sampling in ("vanilla", "self-adversarial")
        for layers in (1, 2)
        for dim in (4, 8)
    ]
    configs = grid + grid[:4]  # 20 total, the first four re-run on fresh graphs
    for assumption, sampling, layers, dim in configs:
        num_e = int(rng.integers(5, 11))
        num_r = int(rng.integers(2, 5))
        kg = _random_kg(rng, num_e, num_r, 3 * num_e)
        index = build_index(kg)
        config = TrainConfig(
            assumption=assumption, layers=layers, dim=dim, sampling=sampling,
            gamma=1.5, alpha=1.0, negatives=2, seed=0,
        )
        state = init_parameters(config, num_e, num_r, rng)
        ph, pr, pt = kg.train[:6].T
        nh, nr, nt = sample_negatives(ph, pr, pt, 2, num_e, rng)
        asm = state.assumption

        def forward(weights=None):
            entities, relations = encode(state, index)
            pos = score_triples(entities, relations, ph, pr, pt, asm)
            neg = score_triples(entities, relations, nh, nr, nt, asm)
            if sampling == "vanilla":
                return batch_margin_loss(pos, neg, config.gamma, 2), neg
            if weights is None:
                weights = batch_self_adv_weights(neg, config.alpha, 2)
            return batch_self_adv_loss(pos, neg, weights, config.gamma, 2), weights

        # weights frozen at the base point: the loss differentiates them as
        # constants, so the finite-difference probe must hold them fixed too
        frozen = None
        if sampling != "vanilla":
            _, frozen = forward()
        with Tape() as tape:
            loss, _ = forward(frozen)
        for p in state.parameters().values():
            p.zero_grad()
        backward(tape, loss)

        coords = kinks = 0
        for name, p in state.parameters().items():
            flat = p.values.reshape(-1)

            def central(i, step):
                keep = flat[i]
                flat[i] = keep + step
                up, _ = forward(frozen)
                flat[i] = keep - step
                down, _ = forward(frozen)
                flat[i] = keep
                return (float(up.values[0, 0]) - float(down.values[0, 0])) / (2 * step)

            for i in range(flat.size):
                coords += 1
                fd = central(i, 1e-5)
                got = float(p.grad.reshape(-1)[i])
                if abs(got - fd) <= 1e-7:
                    continue
                rel = abs(got - fd) / max(abs(got), abs(fd))
                if rel <= 1e-4:
                    worst = max(worst, rel)
                    continue
                # relu and hinge kinks make the central difference itself
                # step-dependent; a coordinate whose fd moves with the step
                # is in a kink neighborhood and carries no gradient signal
                fd2 = central(i, 1e-6)
                if abs(fd2 - fd) > 1e-3 * max(1.0, abs(fd), abs(fd2)):
                    kinks += 1
                    continue
                if abs(got - fd2) > 1e-7:
                    rel = abs(got - fd2) / max(abs(got), abs(fd2))
                    worst = max(worst, rel)
                    assert rel <= 1e-4, (
                        f"{assumption}/{sampling} L{layers} d{dim} {name}[{i}]: "
                        f"analytic {got} vs fd {fd2}"
                    )
        assert kinks <= max(2, coords // 100), (
            f"{assumption}/{sampling} L{layers} d{dim}: "
            f"{kinks} of {coords} coordinates sat on kinks"
        )
    elapsed = time.monotonic() - t0
    verdict(
        1, "backward matches central finite differences on 20 random configs",
        elapsed < 60, f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_zero_layers_degenerate_to_base_models():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    num_e, num_r, d = 60, 6, 16
    triples = [
        (int(rng.integers(num_e)), int(rng.integers(num_r)), int(rng.integers(num_e)))
        for _ in range(1000)
    ]
    ok = True
    for assumption in (Assumption.TRANSLATION, Assumption.ROTATION):
        entity = rng.normal(size=(num_e, d))
        if assumption is Assumption.ROTATION:
            rel_params = rng.uniform(0, 2 * np.pi, size=(num_r, d // 2))
        else:
            rel_params = rng.normal(size=(num_r, d))
        state = ModelState(
            assumption=assumption,
            entity_embed=ad.tensor(entity.copy(), requires_grad=True),
            relation_params=ad.tensor(rel_params.copy(), requires_grad=True),
            layers=[],
        )
        kg = _random_kg(rng, num_e, num_r, 30)
        ents, rels = encode_arrays(state, build_index(kg))
        h = np.array([t[0] for t in triples])
        r = np.array([t[1] for t in triples])
        t_ = np.array([t[2] for t in triples])
        model_scores = score_triples(
            ad.tensor(ents), ad.tensor(rels), h, r, t_, assumption
        ).values.reshape(-1)

        # straight-line re-implementation, one triple at a time
        for k, (hi, ri, ti) in enumerate(triples):
            hv, tv = entity[hi], entity[ti]
            if assumption is Assumption.ROTATION:
                half = d // 2
                theta = rel_params[ri]
                re = hv[:half] * np.cos(theta) - hv[half:] * np.sin(theta)
                im = hv[:half] * np.sin(theta) + hv[half:] * np.cos(theta)
                diff = np.concatenate([re, im]) - tv
            else:
                diff = hv + rel_params[ri] - tv
            expected = -np.abs(diff).sum()
            if model_scores[k] != expected:
                ok = False
    elapsed = time.monotonic() - t0
    verdict(
        2, "zero-layer scores equal straight-line base-model scores bit-for-bit",
        ok and elapsed < 5, f"1000 triples x 2 assumptions, {elapsed:.1f}s",
    )


def test_03_rotation_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    rows, half = 1000, 50  # 10^5 complex coordinates
    h = ad.tensor(rng.normal(size=(rows, 2 * half)))
    theta = ad.tensor(rng.uniform(0, 2 * np.pi, size=(rows, half)))
    r = ad.phase_embedding(theta)

    def moduli(t):
        v = t.values
        return np.hypot(v[:, :half], v[:, half:])

    unit_dev = float(np.abs(moduli(r) - 1.0).max())
    rotated = estimate_from_incoming(h, r, Assumption.ROTATION)
    preserve_dev = float(np.abs(moduli(rotated) - moduli(h)).max())
    back = estimate_from_outgoing(rotated, r, Assumption.ROTATION)
    roundtrip_dev = float(np.abs(back.values - h.values).max())
    elapsed = time.monotonic() - t0
    worst = max(unit_dev, preserve_dev, roundtrip_dev)
    verdict(
        3, "rotation preserves modulus, round-trips, and stays unit-modulus",
        worst <= 1e-12 and elapsed < 5, f"worst dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_04_evaluator_matches_bruteforce_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(41)
    worst = 0.0
    for case in range(50):
        num_e = int(rng.integers(5, 51))
        num_r = int(rng.integers(1, 9))
        d = 6
        kg = _random_kg(rng, num_e, num_r, 2 * num_e, num_valid=4, num_test=6)
        entities = rng.normal(size=(num_e, d))
        if case % 2:
            entities[::2] = entities[0]  # force score ties
        relations = rng.normal(size=(num_r, d))
        report = evaluate(kg, "test", entities, relations, "translation")

        known = known_triple_set(kg)
        ranks = []
        for h, r, t in kg.test:
            for side in ("head", "tail"):
                scores = np.empty(num_e)
                for cand in range(num_e):
                    hh, tt = (cand, t) if side == "head" else (h, cand)
                    scores[cand] = -np.abs(
                        entities[hh] + relations[r] - entities[tt]
                    ).sum()
                true_id = h if side == "head" else t
                blocked = [
                    c
                    for c in range(num_e)
                    if c != true_id
                    and ((c, r, t) if side == "head" else (h, r, c)) in known
                ]
                others = np.delete(scores, blocked + [true_id])
                rank = (
                    1
                    + int((others > scores[true_id]).sum())
                    + (int((others == scores[true_id]).sum()) + 1) // 2
                )
                ranks.append(rank)
        assert sorted(ranks) == sorted(
            list(report.head_ranks) + list(report.tail_ranks)
        )
        oracle = np.asarray(ranks, dtype=np.float64)
        worst = max(
            worst,
            abs(report.mrr - float((1.0 / oracle).mean())),
            abs(report.hits10 - float((oracle <= 10).mean())),
        )
        assert worst <= 1e-12
    elapsed = time.monotonic() - t0
    verdict(
        4, "filtered ranks integer-identical to brute force on 50 random graphs",
        elapsed < 60, f"metric dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_05_self_adversarial_weight_properties():
    rng = np.random.default_rng(53)
    scores = rng.normal(scale=4.0, size=(40, 1))
    w = batch_self_adv_weights(scores, alpha=0.8, negatives_per_positive=8)
    sums = w.reshape(5, 8).sum(axis=1)
    sum_dev = float(np.abs(sums - 1.0).max())

    uniform = batch_self_adv_weights(scores, alpha=0.0, negatives_per_positive=8)
    uniform_dev = float(np.abs(uniform - 1.0 / 8).max())

    shifted = batch_self_adv_weights(scores + 123.456, alpha=0.8, negatives_per_positive=8)
    shift_dev = float(np.abs(shifted - w).max())
    verdict(
        5, "self-adversarial weights normalize, flatten at alpha 0, ignore shifts",
        sum_dev <= 1e-9 and uniform_dev <= 1e-12 and shift_dev <= 1e-12,
        f"devs {sum_dev:.1e}/{uniform_dev:.1e}/{shift_dev:.1e}",
    )


def test_06_desk_scale_learning_beats_flat_baselines():
    t0 = time.monotonic()
    kg = generate_kinship(seed=0)
    assert kg.num_entities == 104 and kg.num_relations == 10
    assert len(kg.valid) == 150 and len(kg.test) == 150
    index = build_index(kg)

    def test_report(config):
        ck = train(kg, config)
        state = ck.state
        ents, rels = encode_arrays(state, index)
        return evaluate(kg, "test", ents, rels, config.assumption, norm=config.norm)

    shared = dict(
        assumption="translation", dim=32, negatives=10, epochs=300, batch=128,
        eval_every=25, seed=0, norm="l2", gamma=4.0, lr=0.01, sampling="vanilla",
    )
    flat = test_report(TrainConfig(layers=0, **shared))
    convolved = test_report(TrainConfig(layers=1, **shared))

    rotation = test_report(TrainConfig(
        assumption="rotation", layers=1, dim=32, negatives=10, epochs=300,
        batch=128, eval_every=25, seed=0, gamma=6.0, lr=0.01,
        sampling="self-adversarial", pretrain_epochs=150,
    ))
    elapsed = time.monotonic() - t0
    verdict(
        6, "one conv layer lifts translation MRR and rotation reaches hits@10 0.80",
        convolved.mrr > flat.mrr and rotation.hits10 >= 0.80 and elapsed < 600,
        f"translation {convolved.mrr:.4f} > {flat.mrr:.4f}, "
        f"rotation hits@10 {rotation.hits10:.4f}, {elapsed:.0f}s",
    )


def test_07_dataset_counts_validate():
    kg = load_dataset(FIXTURE)
    fixture_ok = (
        kg.num_entities == 27
        and kg.num_relations == 5
        and (len(kg.train), len(kg.valid), len(kg.test)) == (40, 5, 5)
        and len(known_triple_set(kg)) == 50
    )
    checked = []
    expected = {
        "TRANSGCN_FB15K237_DIR": (14541, 237, 272115, 17535, 20466),
        "TRANSGCN_WN18RR_DIR": (40943, 11, 86835, 3034, 3134),
    }
    benchmarks_ok = True
    for var, (ne, nr, ntr, nva, nte) in expected.items():
        path = os.environ.get(var)
        if not path:
            continue
        big = load_dataset(Path(path))
        benchmarks_ok &= (
            big.num_entities == ne
            and big.num_relations == nr
            and (len(big.train), len(big.valid), len(big.test)) == (ntr, nva, nte)
        )
        checked.append(var.split("_")[1])
    detail = "benchmarks: " + (", ".join(checked) if checked else "not supplied, skipped")
    verdict(7, "bundled fixture and any supplied benchmark counts are exact",
            fixture_ok and benchmarks_ok, detail)


def test_08_training_and_evaluation_deterministic(tmp_path):
    args = [
        "train", "--data", str(FIXTURE), "--dim", "8", "--layers", "1",
        "--epochs", "5", "--seed", "3", "--batch", "16",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    identical = (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    reports = []
    for threads in ("1", "4"):
        out = tmp_path / f"rep{threads}"
        assert main([
            "eval", "--checkpoint", str(a / "model.ckpt"), "--data", str(FIXTURE),
            "--threads", threads, "--out", str(out),
        ]) == 0
        reports.append((out / "report.json").read_text())
    verdict(8, "identical runs byte-identical and thread count changes nothing",
            identical and reports[0] == reports[1])


def test_09_parameter_accounting():
    worked = param_count_report(
        TrainConfig(assumption="translation", layers=1, dim=100),
        num_entities=14541, num_relations=237, rgcn_basis_B=2,
    )
    toy = param_count_report(
        TrainConfig(assumption="translation", layers=1, dim=8),
        num_entities=104, num_relations=10,
    )
    own = 104 * 8 + 10 * 8 + 2 * 8 * 8
    verdict(
        9, "savings formula and own-parameter arithmetic match hand computation",
        worked["vs_rgcn_basis_translation"] == 10948 and toy["own"] == own == 1040,
        f"delta {worked['vs_rgcn_basis_translation']}, toy own {toy['own']}",
    )


def test_10_full_scale_target_documented_not_gated():
    makefile = (REPO / "Makefile").read_text()
    readme = (REPO / "README.md").read_text()
    has_targets = "fullscale-fb15k237:" in makefile and "fullscale-wn18rr:" in makefile
    runtime_documented = "hour" in makefile and "hour" in readme.lower()
    test_target = makefile.split("test:")[1].split("\n\n")[0] if "test:" in makefile else ""
    not_gated = "fullscale" not in test_target
    verdict(10, "full-scale reproduction is a documented make target outside CI",
            has_targets and runtime_documented and not_gated)
