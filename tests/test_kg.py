"""Dataset loading, vocabulary assembly, and neighborhood indexing."""

import dataclasses
import logging

import numpy as np
import pytest

import transgcn.kg as kg_module
from transgcn.errors import ParseError
from transgcn.kg import (
    KnowledgeGraph,
    build_graph,
    build_index,
    known_triple_set,
    load_dataset,
    read_triples_tsv,
    write_dataset,
)
from unfused import walk_keys


def neighbors(index, i):
    """(incoming, outgoing) of entity i, read off the destination walk.

    Incoming holds (head, relation) of the edges ending at i, outgoing holds
    (tail, relation) of the edges starting at i, which reach i under the
    inverse id R + relation.
    """
    (src, rels), num_relations = index.by_dst.ids, index.num_relations
    at_i = walk_keys(index.by_dst) == i
    pairs = list(zip(src[at_i].tolist(), rels[at_i].tolist()))
    return ([(u, r) for u, r in pairs if r < num_relations],
            [(u, r - num_relations) for u, r in pairs if r >= num_relations])


FIVE_LINES = "A\tlikes\tB\nB\tlikes\tC\nC\tlikes\tA\nA\tknows\tC\nB\tknows\tA\n"


def write_split(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def make_dataset(tmp_path, train, valid="", test=""):
    write_split(tmp_path, "train.txt", train)
    write_split(tmp_path, "valid.txt", valid)
    write_split(tmp_path, "test.txt", test)
    return tmp_path


class TestReadTriplesTsv:
    def test_five_line_fixture(self, tmp_path):
        path = write_split(tmp_path, "train.txt", FIVE_LINES)
        rows = read_triples_tsv(path)
        assert len(rows) == 5
        assert rows[0] == ("A", "likes", "B")
        assert rows[4] == ("B", "knows", "A")

    def test_crlf_lines_tolerated(self, tmp_path):
        path = write_split(tmp_path, "train.txt", "A\tr\tB\r\nB\tr\tC\r\n")
        assert read_triples_tsv(path) == [("A", "r", "B"), ("B", "r", "C")]

    def test_file_order_preserved(self, tmp_path):
        path = write_split(tmp_path, "train.txt", "x\tr\ty\na\tr\tb\n")
        assert read_triples_tsv(path) == [("x", "r", "y"), ("a", "r", "b")]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_split(tmp_path, "train.txt", "A\tr\tB\nB only two\nC\tr\tA\n")
        with pytest.raises(ParseError, match="line 2"):
            read_triples_tsv(path)

    def test_empty_field_rejected(self, tmp_path):
        path = write_split(tmp_path, "train.txt", "A\t\tB\n")
        with pytest.raises(ParseError, match="line 1"):
            read_triples_tsv(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.txt"):
            read_triples_tsv(tmp_path / "nope.txt")

    def test_blank_lines_skipped(self, tmp_path):
        path = write_split(tmp_path, "train.txt", "A\tr\tB\n\nB\tr\tC\n")
        assert len(read_triples_tsv(path)) == 2


class TestVocabulary:
    def test_ids_by_first_appearance(self, tmp_path):
        make_dataset(tmp_path, FIVE_LINES)
        kg = load_dataset(tmp_path)
        # scan order within a triple is head, relation, tail
        assert kg.entity_names == ["A", "B", "C"]
        assert kg.relation_names == ["likes", "knows"]
        assert kg.num_entities == 3
        assert kg.num_relations == 2
        assert len(kg.train) == 5

    def test_valid_and_test_extend_vocab(self, tmp_path):
        make_dataset(tmp_path, "A\tr\tB\n", valid="C\tr\tA\n", test="D\ts\tB\n")
        kg = load_dataset(tmp_path)
        assert kg.entity_names == ["A", "B", "C", "D"]
        assert kg.relation_names == ["r", "s"]
        assert kg.valid.tolist() == [[2, 0, 0]]
        assert kg.test.tolist() == [[3, 1, 1]]

    def test_duplicates_preserved_with_warning(self, tmp_path, caplog):
        make_dataset(tmp_path, "A\tr\tB\nA\tr\tB\nA\tr\tB\n")
        with caplog.at_level(logging.WARNING, logger="transgcn.kg"):
            kg = load_dataset(tmp_path)
        assert len(kg.train) == 3
        assert any("2 duplicate" in rec.message for rec in caplog.records)

    def test_validate_passes_on_loaded_graph(self, tmp_path):
        make_dataset(tmp_path, FIVE_LINES, valid="A\tlikes\tC\n")
        load_dataset(tmp_path)  # the constructor runs the checks

    def test_missing_split_file_is_an_error(self, tmp_path):
        write_split(tmp_path, "train.txt", FIVE_LINES)
        with pytest.raises(FileNotFoundError, match="valid.txt"):
            load_dataset(tmp_path)


def tiny_graph(**splits):
    """Entities a, b, c and relation r, with the given splits over them."""
    kw = {"train": [(0, 0, 1), (1, 0, 2)], "valid": [], "test": [], **splits}
    return KnowledgeGraph(["a", "b", "c"], ["r"], **kw)


class TestSplitArrays:
    def test_splits_are_read_only_int64_rows(self):
        kg = tiny_graph(valid=[(2, 0, 0)], test=np.empty((0, 3)))  # empty: any dtype
        for split in (kg.train, kg.valid, kg.test):
            assert split.dtype == np.int64 and split.ndim == 2 and split.shape[1] == 3
            assert split.flags.c_contiguous and not split.flags.writeable
        assert kg.test.shape == (0, 3)
        with pytest.raises(ValueError):
            kg.train[0, 0] = 2

    def test_caller_array_stays_writable(self):
        rows = np.array([[0, 0, 1], [1, 0, 2]])
        kg = tiny_graph(train=rows)
        assert rows.flags.writeable and not kg.train.flags.writeable
        assert kg.train.tolist() == rows.tolist()

    def test_array_slice_is_accepted(self):
        kg = tiny_graph(test=[(0, 0, 1), (1, 0, 2), (2, 0, 0)])
        sub = dataclasses.replace(kg, test=kg.test[:2])
        assert sub.test.tolist() == [[0, 0, 1], [1, 0, 2]]
        assert not sub.test.flags.writeable

    @pytest.mark.parametrize("rows", [[(-1, 0, 0)], [(7, 0, 0)], [(0, 1, 0)], [(0, 0)],
                                      [(0, 0, 1), (0, 1)], [(0, 0, 1, 2)],
                                      [(0.7, 0, 1.9)], np.array([[0.0, 0.0, 1.0]]),
                                      [(True, False, True)], [("0", "0", "1")]])
    def test_bad_rows_are_refused_naming_the_split(self, rows):
        with pytest.raises(ValueError, match="^test split"):
            tiny_graph(test=rows)

    def test_duplicate_names_are_refused(self):
        with pytest.raises(ValueError, match="duplicate entity names"):
            KnowledgeGraph(["a", "a"], ["r"], [(0, 0, 1)], [], [])
        with pytest.raises(ValueError, match="duplicate relation names"):
            KnowledgeGraph(["a", "b"], ["r", "r"], [(0, 0, 1)], [], [])


class TestRoundTrip:
    def test_write_then_reload_identical_ids(self, tmp_path):
        (tmp_path / "src").mkdir()
        src = make_dataset(
            tmp_path / "src",
            FIVE_LINES,
            valid="A\tlikes\tC\n",
            test="C\tknows\tB\n",
        )
        kg = load_dataset(src)
        out = tmp_path / "out"
        write_dataset(kg, out)
        again = load_dataset(out)
        assert again.entity_names == kg.entity_names
        assert again.relation_names == kg.relation_names
        assert np.array_equal(again.train, kg.train)
        assert np.array_equal(again.valid, kg.valid)
        assert np.array_equal(again.test, kg.test)

    def test_random_graphs_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for case in range(5):
            n_ent, n_rel = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            names = [f"e{i}" for i in range(n_ent)]
            rels = [f"r{i}" for i in range(n_rel)]
            rows = [
                (
                    names[rng.integers(n_ent)],
                    rels[rng.integers(n_rel)],
                    names[rng.integers(n_ent)],
                )
                for _ in range(int(rng.integers(1, 60)))
            ]
            cut = max(1, len(rows) // 3)
            kg = build_graph(rows[:cut], rows[cut : 2 * cut], rows[2 * cut :])
            out = tmp_path / f"case{case}"
            write_dataset(kg, out)
            again = load_dataset(out)
            assert np.array_equal(again.train, kg.train)
            assert np.array_equal(again.valid, kg.valid)
            assert np.array_equal(again.test, kg.test)


class TestNeighborhoodIndex:
    def test_degree_of_shared_entity(self):
        # {(A,r,B), (C,s,B), (B,t,D)}: B has two incoming and one outgoing edge
        kg = build_graph(
            [("A", "r", "B"), ("C", "s", "B"), ("B", "t", "D")], [], []
        )
        index = build_index(kg)
        b = kg.entity_names.index("B")
        assert index.degree[b] == 3
        incoming, outgoing = neighbors(index, b)
        assert sorted(incoming) == [(0, 0), (2, 1)]  # (A,r), (C,s)
        assert outgoing == [(3, 2)]  # (D,t)

    def test_degrees_sum_to_twice_train_size(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n_ent = int(rng.integers(2, 40))
            rows = [
                (f"e{rng.integers(n_ent)}", f"r{rng.integers(3)}", f"e{rng.integers(n_ent)}")
                for _ in range(int(rng.integers(1, 120)))
            ]
            kg = build_graph(rows, [], [])
            index = build_index(kg)
            assert int(np.sum(index.degree)) == 2 * len(kg.train)

    def test_index_uses_train_split_only(self):
        kg = build_graph([("A", "r", "B")], [("A", "r", "C")], [("C", "r", "B")])
        index = build_index(kg)
        c = kg.entity_names.index("C")
        assert index.degree[c] == 0
        assert neighbors(index, c) == ([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        rows = [
            (f"e{rng.integers(15)}", f"r{rng.integers(4)}", f"e{rng.integers(15)}")
            for _ in range(80)
        ]
        kg = build_graph(rows, [], [])
        index = build_index(kg)
        perm = list(rng.permutation(len(rows)))
        shuffled = KnowledgeGraph(
            entity_names=kg.entity_names,
            relation_names=kg.relation_names,
            train=kg.train[perm],
            valid=[],
            test=[],
        )
        other = build_index(shuffled)
        assert np.array_equal(index.degree, other.degree)
        for i in range(kg.num_entities):
            (inc_a, out_a), (inc_b, out_b) = neighbors(index, i), neighbors(other, i)
            assert sorted(inc_a) == sorted(inc_b)
            assert sorted(out_a) == sorted(out_b)

    def test_self_loop_counts_twice(self):
        kg = build_graph([("A", "r", "A")], [], [])
        index = build_index(kg)
        assert index.degree[0] == 2

    def test_sorted_orders_and_offsets(self, monkeypatch):
        rng = np.random.default_rng(9)
        for chunk in [3, 7, kg_module.NEIGHBOR_CHUNK] * 4:
            # the walks are planned when the index is built, from the chunk size then
            monkeypatch.setattr(kg_module, "NEIGHBOR_CHUNK", chunk)
            rows = [
                (f"e{rng.integers(25)}", f"r{rng.integers(4)}", f"e{rng.integers(25)}")
                for _ in range(int(rng.integers(1, 150)))
            ]
            kg = build_graph(rows, [], [("x", "r0", "y")])  # x, y have degree 0
            index = build_index(kg)
            heads, rels, tails = kg.train.T
            n, num_relations, num_edges = kg.num_entities, kg.num_relations, len(kg.train)
            assert index.num_relations == num_relations
            # every edge h -r-> t, then its reverse t -(R + r)-> h, in file order;
            # each walk holds only the ids its pass gathers
            for walk, key, ids in (
                (index.by_dst, np.concatenate([tails, heads]),
                 (np.concatenate([heads, tails]), np.concatenate([rels, rels + num_relations]))),
                (index.by_rel, rels, (heads, tails)),
            ):
                perm = np.argsort(key, kind="stable")
                keys = key[perm]
                assert np.all(np.diff(keys) >= 0)
                # stable: forward before reverse edges, each in file order, within a key
                assert np.all(np.diff(perm)[np.diff(keys) == 0] > 0)
                assert [held.tolist() for held in walk.ids] == [a[perm].tolist() for a in ids]
                assert walk_keys(walk).tolist() == keys.tolist()
                chunks = list(walk.chunks())
                # a cut every NEIGHBOR_CHUNK edges
                edges = [slice(lo, lo + chunk) for lo in range(0, key.size, chunk)]
                assert len(chunks) == len(edges)
                for cut, (chunk_ids, starts, run_keys) in zip(edges, chunks):
                    assert [a.tolist() for a in chunk_ids] == [a[cut].tolist() for a in walk.ids]
                    assert starts.tolist() == np.flatnonzero(
                        np.diff(keys[cut], prepend=-1)).tolist()
                    assert run_keys.tolist() == keys[cut][starts].tolist()
            assert index.by_dst.ids[0].size == 2 * num_edges
            assert np.sum(index.by_dst.ids[1] >= num_relations) == num_edges
            assert index.by_rel.ids[0].size == num_edges
            assert np.array_equal(
                index.degree, np.bincount(heads, minlength=n) + np.bincount(tails, minlength=n))
            assert index.degree[[kg.entity_names.index("x"), kg.entity_names.index("y")]].tolist() \
                == [0, 0]


class TestKnownTripleSet:
    def test_membership_across_splits(self):
        kg = build_graph([("A", "r", "B")], [("B", "r", "C")], [("C", "r", "A")])
        known = known_triple_set(kg)
        assert len(known) == 3
        assert (0, 0, 1) in known
        assert (1, 0, 2) in known
        assert (2, 0, 0) in known
        assert (0, 0, 2) not in known

    def test_duplicates_collapse_in_set(self):
        kg = build_graph([("A", "r", "B"), ("A", "r", "B")], [], [])
        assert len(known_triple_set(kg)) == 1
