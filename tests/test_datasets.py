"""Count validation for the bundled fixture and, when present, the public benchmarks.

Point TRANSGCN_FB15K237_DIR / TRANSGCN_WN18RR_DIR at directories holding the
standard train/valid/test files to enable the benchmark checks; they skip
otherwise so CI never depends on external downloads.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from transgcn.kg import known_triple_set, load_dataset

FIXTURE = Path(__file__).parent / "data" / "geo50"


class TestBundledFixture:
    def test_counts(self):
        kg = load_dataset(FIXTURE)
        assert kg.num_entities == 27
        assert kg.num_relations == 5
        assert (len(kg.train), len(kg.valid), len(kg.test)) == (40, 5, 5)

    def test_splits_disjoint_and_duplicate_free(self):
        kg = load_dataset(FIXTURE)
        assert len(known_triple_set(kg)) == 50

    def test_every_split_entity_seen_in_train(self):
        kg = load_dataset(FIXTURE)
        in_train = set(kg.train[:, 0].tolist()) | set(kg.train[:, 2].tolist())
        for h, _, t in np.concatenate([kg.valid, kg.test]).tolist():
            assert h in in_train and t in in_train


def _benchmark_dir(env_var):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"{env_var} not set")
    return Path(path)


class TestPublicBenchmarks:
    def test_fb15k237_counts(self):
        kg = load_dataset(_benchmark_dir("TRANSGCN_FB15K237_DIR"))
        assert kg.num_entities == 14541
        assert kg.num_relations == 237
        assert (len(kg.train), len(kg.valid), len(kg.test)) == (272115, 17535, 20466)
        assert len(known_triple_set(kg)) == 272115 + 17535 + 20466

    def test_wn18rr_counts(self):
        kg = load_dataset(_benchmark_dir("TRANSGCN_WN18RR_DIR"))
        assert kg.num_entities == 40943
        assert kg.num_relations == 11
        assert (len(kg.train), len(kg.valid), len(kg.test)) == (86835, 3034, 3134)
        assert len(known_triple_set(kg)) == 86835 + 3034 + 3134
