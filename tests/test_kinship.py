"""Synthetic kinship generator: counts, determinism, planted structure."""

import hashlib

import numpy as np
import pytest

from transgcn.kg import SPLIT_FILES, write_dataset
from transgcn.kinship import RELATION_NAMES, generate_kinship


def name_triples(kg, splits=("train", "valid", "test")):
    out = set()
    for split in splits:
        for h, r, t in kg.split(split).tolist():
            out.add((kg.entity_names[h], kg.relation_names[r], kg.entity_names[t]))
    return out


@pytest.fixture(scope="module")
def kg():
    return generate_kinship(seed=0)


class TestShape:
    def test_entity_and_relation_counts(self, kg):
        assert kg.num_entities == 104
        assert kg.num_relations == 10
        assert set(kg.relation_names) == set(RELATION_NAMES)

    def test_split_sizes(self, kg):
        assert len(kg.valid) == 150
        assert len(kg.test) == 150
        assert 1400 <= len(kg.train) <= 1600

    def test_generations_present(self, kg):
        prefixes = {name[:2] for name in kg.entity_names}
        assert prefixes == {"g0", "g1", "g2"}
        assert sum(1 for n in kg.entity_names if n.startswith("g0")) == 24
        assert sum(1 for n in kg.entity_names if n.startswith("g1")) == 44
        assert sum(1 for n in kg.entity_names if n.startswith("g2")) == 36

    def test_scaled_down_generation(self):
        small = generate_kinship(seed=0, founder_couples=3, valid_size=25, test_size=25)
        assert small.num_entities == 2 * 3 + 11 + 9
        assert small.num_relations == 10
        assert len(small.valid) == 25
        assert len(small.test) == 25


    @pytest.mark.parametrize("sizes, message", [
        (dict(founder_couples=0), "founder couples must be >= 2, got 0"),
        (dict(valid_size=-5), "split sizes must be >= 0, got valid -5, test 150"),
        (dict(test_size=-1), "split sizes must be >= 0, got valid 150, test -1"),
        (dict(founder_couples=1), "founder couples must be >= 2, got 1"),
        (dict(valid_size=5000, test_size=10),
         "asked for 5000 valid and 10 test triples, but only 1720 of 1782 can leave train"),
    ])
    def test_sizes_it_cannot_honour_refused(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            generate_kinship(seed=0, **sizes)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_kinship(seed=-1)

    def test_every_triple_it_can_move_is_given(self):
        # seed 0 can move 1,720 of its 1,782 triples out of train, and all are given
        kg = generate_kinship(seed=0, valid_size=1000, test_size=720)
        assert (len(kg.train), len(kg.valid), len(kg.test)) == (62, 1000, 720)

    def test_two_founder_couples_build(self):
        for seed in range(20):
            kg = generate_kinship(seed=seed, founder_couples=2, valid_size=0, test_size=0)
            assert kg.num_relations == 10 and kg.num_entities == 4 + 7 + 6


class TestDeterminism:
    def test_same_seed_identical(self, kg):
        again = generate_kinship(seed=0)
        assert np.array_equal(kg.train, again.train)
        assert np.array_equal(kg.valid, again.valid)
        assert np.array_equal(kg.test, again.test)
        assert kg.entity_names == again.entity_names

    def test_different_seed_differs(self, kg):
        other = generate_kinship(seed=1)
        assert name_triples(kg) != name_triples(other)


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize("args, digests", [
    (dict(), ("825d5d9a249408439c67ffb5a3b1f342030120fad11402896262c7f0923dcb8e",
              "8912a09203f37ff6f879fff155bce91612062dc8c5dfd5ef1335e181a98fd97f",
              "37fd9aca64118a86ff9d943d3469b3371bef6e812651e647e4f21108e6faf610")),
    (dict(founder_couples=2, seed=5, valid_size=10, test_size=3),
     ("84898d3de764a94ebedea85625d7af10bcb99fef09f4f8f5eefe090ac21c920c",
      "070e8daa3e671097790cb9f3bcced8e51721c4bd48edf76c48c71577ffd571d8",
      "7e3db956d98c507b66a82b808051d503f6c9cf50174d88964d9a6f8585f6b53f")),
    (dict(founder_couples=13, seed=1, valid_size=0, test_size=0),
     ("4a1b3dce239e5ef2b40ec33126eb56bdbfab50d11e817ba0c0578b416aebc8ae", EMPTY, EMPTY)),
    (dict(founder_couples=25, seed=7, valid_size=10, test_size=3),
     ("db813e75c6f2b5df012026eda5172bf3f707fa0504ecc62d421f290464e4108d",
      "372a0e3b6d0e9f4c373eb7f92542d005de3522a734a2225caefe07d7a366c5d1",
      "3dace3556ac94972c61161e7177926f432bbd95cfa0eaa2f0720966701737028")),
])
def test_written_bytes_are_pinned(tmp_path, args, digests):
    write_dataset(generate_kinship(**args), tmp_path)
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in SPLIT_FILES)
    assert got == digests


class TestSplitHygiene:
    def test_train_covers_all_names(self, kg):
        seen_entities = set()
        seen_relations = set()
        for h, r, t in kg.train.tolist():
            seen_entities.update((h, t))
            seen_relations.add(r)
        assert len(seen_entities) == kg.num_entities
        assert len(seen_relations) == kg.num_relations

    def test_splits_disjoint_no_duplicates(self, kg):
        train = set(map(tuple, kg.train.tolist()))
        valid = set(map(tuple, kg.valid.tolist()))
        test = set(map(tuple, kg.test.tolist()))
        assert len(train) == len(kg.train)
        assert len(valid) == len(kg.valid)
        assert len(test) == len(kg.test)
        assert not (train & valid or train & test or valid & test)


class TestPlantedStructure:
    def test_symmetric_relations_closed(self, kg):
        union = name_triples(kg)
        for h, r, t in union:
            if r in ("spouse", "sibling", "cousin", "inlaw"):
                assert (t, r, h) in union, (h, r, t)

    def test_inverse_pairs_closed(self, kg):
        union = name_triples(kg)
        inverse = {
            "parent": "child",
            "child": "parent",
            "grandparent": "grandchild",
            "grandchild": "grandparent",
            "auntuncle": "nephewniece",
            "nephewniece": "auntuncle",
        }
        for h, r, t in union:
            if r in inverse:
                assert (t, inverse[r], h) in union, (h, r, t)

    def test_grandparent_composes_parent_twice(self, kg):
        union = name_triples(kg)
        parents_of = {}
        for h, r, t in union:
            if r == "parent":
                parents_of.setdefault(t, set()).add(h)
        for h, r, t in union:
            if r == "grandparent":
                middles = parents_of.get(t, set())
                assert any(h in parents_of.get(m, set()) for m in middles), (h, t)

    def test_auntuncle_is_parents_sibling(self, kg):
        union = name_triples(kg)
        parents_of = {}
        siblings = set()
        for h, r, t in union:
            if r == "parent":
                parents_of.setdefault(t, set()).add(h)
            elif r == "sibling":
                siblings.add((h, t))
        for h, r, t in union:
            if r == "auntuncle":
                assert any((h, p) in siblings for p in parents_of.get(t, set())), (h, t)

    def test_every_grandchild_has_four_grandparents(self, kg):
        union = name_triples(kg)
        count = {}
        for h, r, t in union:
            if r == "grandparent":
                count[t] = count.get(t, 0) + 1
        gen2 = [n for n in kg.entity_names if n.startswith("g2")]
        assert set(count) == set(gen2)
        assert all(v == 4 for v in count.values())
