"""What the benchmark (benchmarks/) uses of the package still exists and works.

The tracer (benchmarks/tracing.py) replaces module attributes by name, the
benchmark modules import names from ``transgcn``, and they call the package
in a few fixed ways.  The benchmark's files do not change with the package,
so renaming or deleting one of these names, or changing how one of these
calls behaves, would otherwise break only the benchmark runs.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from transgcn import TrainConfig, build_graph, evaluate, generate_kinship, known_triple_set, train

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def kg():
    return generate_kinship(seed=0, founder_couples=3, valid_size=20, test_size=20)


def test_every_traced_attribute_resolves():
    tracing = benchmark_module("tracing")
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.TARGETS and not missing, missing


def test_every_name_the_benchmark_imports_resolves():
    imported, missing = [], []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "transgcn"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                imported.append(name)
                if not (hasattr(module, alias.name) or importlib.util.find_spec(name)):
                    missing.append(f"{path.name}: {name}")
    assert "transgcn.kg.known_triple_set" in imported
    assert not missing, missing


def test_train_without_validation_split(kg):
    # run.first_step and reference.py train on dataclasses.replace(kg, valid=[])
    config = TrainConfig(dim=8, layers=1, epochs=2, pretrain_epochs=1, batch=256, seed=0)
    checkpoint = train(dataclasses.replace(kg, valid=[]), config)
    assert np.isnan(checkpoint.best_valid_mrr) and checkpoint.epoch == 2
    assert len(kg.valid) == 20
    assert benchmark_module("run").first_step(kg, config) is None


@pytest.mark.parametrize("assumption", ["rotation", "translation"])
def test_test_prefix_ranks_as_in_the_full_split(kg, assumption):
    # checks.check_threads ranks dataclasses.replace(kg, test=kg.test[:k]) with
    # known=known_triple_set(kg) and compares with the full split's first k ranks
    rng = np.random.default_rng(3)
    entities = rng.standard_normal((kg.num_entities, 8))
    relations = rng.standard_normal((kg.num_relations, 8))
    full = evaluate(kg, "test", entities, relations, assumption)
    count = 7
    sub = dataclasses.replace(kg, test=kg.test[:count])
    report = evaluate(sub, "test", entities, relations, assumption, threads=2,
                      known=known_triple_set(kg))
    np.testing.assert_array_equal(report.head_ranks, full.head_ranks[:count])
    np.testing.assert_array_equal(report.tail_ranks, full.tail_ranks[:count])
    ok, detail = benchmark_module("checks").check_threads(
        kg, entities, relations, assumption, full.head_ranks, full.tail_ranks, count)
    assert ok and detail == f"{assumption}: {2 * count} queries"


def test_kinship_splits_name_every_row():
    # inputs.kinship_splits maps `for h, r, t in kg.train` rows to names
    kg = generate_kinship(seed=4)
    splits = benchmark_module("inputs").kinship_splits(4)
    assert [len(rows) for rows in splits] == [len(kg.train), len(kg.valid), len(kg.test)]
    assert all(isinstance(name, str) for rows in splits for row in rows for name in row)
    again = build_graph(*splits)
    assert again.entity_names == kg.entity_names
    for name in ("train", "valid", "test"):
        np.testing.assert_array_equal(again.split(name), kg.split(name))
