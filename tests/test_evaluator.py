"""Filtered link-prediction protocol against an exhaustive oracle."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from transgcn import evaluator
from transgcn.evaluator import (
    KnownFilter,
    RankingReport,
    candidate_scores,
    degree_bucket_report,
    evaluate,
    rank_from_scores,
)
from transgcn.kg import Triple, build_graph, build_index, known_triple_set
from transgcn.transform import Assumption


def oracle_score(entities, relations, h, r, t, assumption, norm):
    """Straight-line single-triple score used by the brute-force oracle."""
    if assumption is Assumption.TRANSLATION:
        diff = entities[h] + relations[r] - entities[t]
    else:
        k = entities.shape[1] // 2
        hr, hi = entities[h][:k], entities[h][k:]
        rr, ri = relations[r][:k], relations[r][k:]
        diff = np.concatenate([hr * rr - hi * ri, hr * ri + hi * rr]) - entities[t]
    if norm == "l1":
        return -np.abs(diff).sum()
    return -np.sqrt(np.square(diff).sum())


def oracle_rank(entities, relations, triple, side, known, assumption, norm):
    """Exhaustive candidate loop with the same mid-rank tie convention."""
    h, r, t = triple
    true_id = t if side == "tail" else h
    true_score = oracle_score(entities, relations, h, r, t, assumption, norm)
    higher = tied = 0
    for c in range(entities.shape[0]):
        if c == true_id:
            continue
        cand = (h, r, c) if side == "tail" else (c, r, t)
        if cand in known:
            continue
        s = oracle_score(entities, relations, *cand, assumption, norm)
        if s > true_score:
            higher += 1
        elif s == true_score:
            tied += 1
    return 1 + higher + (tied + 1) // 2


def filtered_rank(entities, relations, triple, side, known, assumption, norm):
    """Filtered rank of one query from the package's scores, filtered by a
    per-candidate loop over ``known``."""
    h, r, t = triple
    fixed, true_id = (h, t) if side == "tail" else (t, h)
    scores = candidate_scores(entities, relations, r, [fixed], side, assumption, norm)[0]
    keep = np.ones(len(scores), dtype=bool)
    for c in range(len(scores)):
        if c == true_id:
            continue
        cand = (h, r, c) if side == "tail" else (c, r, t)
        if cand in known:
            keep[c] = False
    keep[true_id] = False  # the true triple is never its own competitor
    return rank_from_scores(float(scores[true_id]), scores[keep])


def random_kg(rng, n_ent, n_rel, n_train, n_test):
    def rows(k):
        return [
            (f"e{rng.integers(n_ent)}", f"r{rng.integers(n_rel)}", f"e{rng.integers(n_ent)}")
            for _ in range(k)
        ]

    anchor = [(f"e{i}", "r0", f"e{(i + 1) % n_ent}") for i in range(n_ent)]
    return build_graph(rows(n_train) + anchor, rows(max(1, n_test // 2)), rows(n_test))


class TestRankFromScores:
    def test_strictly_best_is_rank_one(self):
        assert rank_from_scores(-1.0, np.array([-2.0, -3.0])) == 1

    def test_counts_strictly_higher(self):
        assert rank_from_scores(-2.0, np.array([-1.0, -1.5, -3.0])) == 3

    def test_tie_group_takes_pessimistic_mid_rank(self):
        # sorted scores [7, 5, 5, 5, 3]: tie group spans positions 2..4
        assert rank_from_scores(5.0, np.array([7.0, 5.0, 5.0, 3.0])) == 3

    def test_two_way_tie_rounds_up(self):
        assert rank_from_scores(5.0, np.array([5.0])) == 2

    def test_all_candidates_tie(self):
        for c in range(1, 8):
            others = np.full(c, 1.0)
            assert rank_from_scores(1.0, others) == int(np.ceil((1 + c + 1) / 2))

    def test_empty_candidates(self):
        assert rank_from_scores(0.5, np.array([])) == 1

    def test_rows_equal_one_rank_per_row(self):
        rng = np.random.default_rng(13)
        scores = rng.integers(-3, 3, size=(9, 11)).astype(float)  # integers force ties
        scores[2] = -np.inf
        true = rng.integers(-3, 3, size=9).astype(float)
        ranks = rank_from_scores(true, scores)
        assert ranks.tolist() == [rank_from_scores(t, row) for t, row in zip(true, scores)]

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.integers(-5, 5, size=12).astype(float)  # integers force ties
            true = float(rng.integers(-5, 5))
            base = rank_from_scores(true, s)
            assert rank_from_scores(np.exp(true) + 3 * true, np.exp(s) + 3 * s) == base


class TestFilteredRank:
    def test_filtering_removes_known_but_never_true(self):
        kg = build_graph([("a", "r", "a"), ("a", "r", "b")], [], [("a", "r", "c")])
        known = known_triple_set(kg)
        rng = np.random.default_rng(1)
        entities = rng.standard_normal((3, 4))
        relations = rng.standard_normal((1, 4))
        rank = filtered_rank(
            entities, relations, kg.test[0], "tail", known,
            Assumption.TRANSLATION, "l1",
        )
        # tail query (a, r, ?): both corruptions are known triples, only the true c survives
        assert rank == 1

    def test_tie_from_duplicate_embeddings(self):
        entities = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        relations = np.zeros((1, 2))
        kg = build_graph([("a", "r", "b")], [], [("a", "r", "c")])
        rank = filtered_rank(
            entities, relations, kg.test[0], "tail", frozenset(),
            Assumption.TRANSLATION, "l1",
        )
        # b and c share an embedding row: the unfiltered tie resolves mid-rank
        oracle = oracle_rank(entities, relations, kg.test[0], "tail", frozenset(),
                             Assumption.TRANSLATION, "l1")
        assert rank == oracle

    def test_filtered_never_exceeds_raw(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            kg = random_kg(rng, 12, 3, 30, 6)
            known = known_triple_set(kg)
            entities = rng.standard_normal((kg.num_entities, 6))
            relations = rng.standard_normal((kg.num_relations, 6))
            for triple in kg.test:
                for side in ("head", "tail"):
                    filt = filtered_rank(entities, relations, triple, side, known,
                                         Assumption.TRANSLATION, "l1")
                    raw = filtered_rank(entities, relations, triple, side, frozenset(),
                                        Assumption.TRANSLATION, "l1")
                    assert filt <= raw

    @pytest.mark.parametrize("assumption", [Assumption.TRANSLATION, Assumption.ROTATION])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_matches_oracle_on_random_graphs(self, assumption, norm):
        rng = np.random.default_rng(3)
        for case in range(6):
            kg = random_kg(rng, int(rng.integers(4, 14)), int(rng.integers(1, 4)), 25, 5)
            known = known_triple_set(kg)
            d = 6
            entities = rng.standard_normal((kg.num_entities, d))
            if case % 2:  # plant exact ties
                entities[1] = entities[0]
                if kg.num_entities > 3:
                    entities[3] = entities[2]
            relations = rng.standard_normal((kg.num_relations, d))
            report = evaluate(kg, "test", entities, relations, assumption, norm)
            raw = evaluate(kg, "test", entities, relations, assumption, norm,
                           known=frozenset())
            for i, triple in enumerate(kg.test):
                for side in ("head", "tail"):
                    got = filtered_rank(entities, relations, triple, side, known,
                                        assumption, norm)
                    want = oracle_rank(entities, relations, triple, side, known,
                                       assumption, norm)
                    assert got == want
                    assert getattr(report, f"{side}_ranks")[i] == want
                    assert getattr(raw, f"{side}_ranks")[i] == oracle_rank(
                        entities, relations, triple, side, frozenset(), assumption, norm)


class TestCandidateScores:
    def test_vectorized_equals_per_triple(self, monkeypatch):
        rng = np.random.default_rng(4)
        entities = rng.standard_normal((7, 8))
        relations = rng.standard_normal((2, 8))
        fixed = [3, 5, 3, 0, 6]  # one call, several blocks, a repeated query
        # at d=8 and 7 entities: tiles of 4 rows with one query per block,
        # whole-table tiles with 2 queries per block, and the default
        for rank_block in (32, 120, evaluator.RANK_BLOCK):
            monkeypatch.setattr(evaluator, "RANK_BLOCK", rank_block)
            for side in ("head", "tail"):
                # the assumption as its enum member and as its name
                for assumption in (*Assumption, "translation", "rotation"):
                    for norm in ("l1", "l2"):
                        vec = candidate_scores(entities, relations, 1, fixed, side,
                                               assumption, norm)
                        assert vec.shape == (len(fixed), 7)
                        for row, f in zip(vec, fixed):
                            for c in range(7):
                                cand = (f, 1, c) if side == "tail" else (c, 1, f)
                                assert row[c] == oracle_score(
                                    entities, relations, *cand, Assumption(assumption), norm)

    def test_bad_side_and_norm_rejected(self):
        entities, relations = np.zeros((3, 4)), np.zeros((1, 4))
        with pytest.raises(ValueError, match="side"):
            candidate_scores(entities, relations, 0, [1], "middle", "translation", "l1")
        with pytest.raises(ValueError, match="norm"):
            candidate_scores(entities, relations, 0, [1], "tail", "translation", "l3")


class TestBlockedRanking:
    """evaluate's grouped, tiled path against the brute-force oracle."""

    @staticmethod
    def graph():
        # r0: a chain, so every entity is seen; r1: e0's tails cover every entity, so
        # (e0, r1, ?) has every other candidate blocked; r2 has a single test query;
        # test triples repeat; under known = train only, queries on r3 block nothing
        n = 13
        train = [(f"e{i}", "r0", f"e{(i + 1) % n}") for i in range(n)]
        train += [("e0", "r1", f"e{i}") for i in range(1, n)] + [("e4", "r2", "e5")]
        test = [("e0", "r1", "e0"), ("e3", "r0", "e7"), ("e3", "r0", "e7"), ("e2", "r2", "e9"),
                ("e1", "r3", "e8"), ("e5", "r3", "e5"), ("e6", "r0", "e12")]
        test += [(f"e{i}", "r1", f"e{(3 * i) % n}") for i in range(2, 9)]
        return build_graph(train, [("e8", "r3", "e1")], test)

    @pytest.mark.parametrize("rank_block", (30, 300, evaluator.RANK_BLOCK))
    @pytest.mark.parametrize("assumption", [Assumption.TRANSLATION, Assumption.ROTATION])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_equals_oracle(self, rank_block, assumption, norm, monkeypatch):
        # at d=6 and 13 entities: tiles of 5 rows (the last one 3), or whole-table
        # tiles with 3 queries per block; r1's 8 queries span two calls of 6
        monkeypatch.setattr(evaluator, "RANK_BLOCK", rank_block)
        kg = self.graph()
        rng = np.random.default_rng(14)
        entities = rng.standard_normal((kg.num_entities, 6))
        entities[[4, 9, 11]] = entities[7]  # planted exact ties with a true entity
        relations = rng.standard_normal((kg.num_relations, 6))
        for known in (known_triple_set(kg), frozenset(map(tuple, kg.train)), frozenset()):
            a = evaluate(kg, "test", entities, relations, assumption, norm, known=known)
            b = evaluate(kg, "test", entities, relations, assumption, norm, threads=3,
                         known=known)
            np.testing.assert_array_equal(a.head_ranks, b.head_ranks)
            np.testing.assert_array_equal(a.tail_ranks, b.tail_ranks)
            for i, triple in enumerate(kg.test):
                for side in ("head", "tail"):
                    want = oracle_rank(entities, relations, triple, side, known,
                                       assumption, norm)
                    assert getattr(a, f"{side}_ranks")[i] == want

    def test_every_other_candidate_blocked(self):
        kg = self.graph()
        rng = np.random.default_rng(15)
        entities = rng.standard_normal((kg.num_entities, 6))
        relations = rng.standard_normal((kg.num_relations, 6))
        # every other tail of (e0, r1, ?) sits near e0 + r1 and beats the true e0
        entities[1:] = entities[0] + relations[1] + 0.01 * entities[1:]
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        assert kg.test[0] == (0, 1, 0) and report.tail_ranks[0] == 1
        raw = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1",
                       known=frozenset())
        assert raw.tail_ranks[0] == kg.num_entities

    def test_memory_is_bounded_by_blocks(self):
        def peak(n_test):
            rng = np.random.default_rng(16)
            kg = random_kg(rng, 1500, 3, 2500, n_test)
            entities = rng.standard_normal((kg.num_entities, 32))
            relations = rng.standard_normal((kg.num_relations, 32))
            known = known_triple_set(kg)
            tracemalloc.start()
            try:
                evaluate(kg, "test", entities, relations, Assumption.ROTATION, "l1",
                         known=known)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(250), peak(1000)
        assert large < 1.5 * small, (small, large)


class TestEvaluate:
    def make_setup(self, seed=5, n_ent=10):
        rng = np.random.default_rng(seed)
        kg = random_kg(rng, n_ent, 2, 30, 8)
        entities = rng.standard_normal((kg.num_entities, 6))
        relations = rng.standard_normal((kg.num_relations, 6))
        return kg, entities, relations

    def test_report_shape_and_ranges(self):
        kg, entities, relations = self.make_setup()
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        q = len(kg.test)
        assert len(report.head_ranks) == q and len(report.tail_ranks) == q
        assert 0 < report.mrr <= 1
        assert 0 <= report.hits1 <= report.hits3 <= report.hits10 <= 1

    def test_mrr_is_mean_reciprocal_over_both_sides(self):
        kg, entities, relations = self.make_setup()
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        ranks = np.concatenate([report.head_ranks, report.tail_ranks]).astype(float)
        np.testing.assert_allclose(report.mrr, np.mean(1.0 / ranks), atol=1e-12)
        np.testing.assert_allclose(report.hits10, np.mean(ranks <= 10), atol=1e-12)

    def test_perfect_model_scores_mrr_one(self):
        # the test triple's tail corruptions are all known: only the true survives
        kg = build_graph([("a", "r", "a"), ("a", "r", "c")], [], [("a", "r", "b")])
        rng = np.random.default_rng(6)
        entities = rng.standard_normal((3, 4))
        relations = rng.standard_normal((1, 4))
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        assert report.tail_ranks[0] == 1

    def test_threads_do_not_change_results(self):
        kg, entities, relations = self.make_setup(seed=7, n_ent=14)
        a = evaluate(kg, "test", entities, relations, Assumption.ROTATION, "l1", threads=1)
        b = evaluate(kg, "test", entities, relations, Assumption.ROTATION, "l1", threads=4)
        np.testing.assert_array_equal(a.head_ranks, b.head_ranks)
        np.testing.assert_array_equal(a.tail_ranks, b.tail_ranks)
        assert a.mrr == b.mrr

    def test_side_symmetry_on_symmetric_graph(self):
        # triples closed under reversal + zero relation vectors => symmetric scores
        rng = np.random.default_rng(8)
        base = [("a", "r", "b"), ("c", "r", "d"), ("b", "r", "d")]
        sym = base + [(t, r, h) for h, r, t in base]
        kg = build_graph(sym, [], sym)
        entities = rng.standard_normal((kg.num_entities, 4))
        relations = np.zeros((1, 4))
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        head_mrr = np.mean(1.0 / report.head_ranks)
        tail_mrr = np.mean(1.0 / report.tail_ranks)
        np.testing.assert_allclose(head_mrr, tail_mrr, atol=1e-12)

    def test_empty_split_rejected(self):
        kg = build_graph([("a", "r", "b")], [], [])
        with pytest.raises(ValueError, match="empty"):
            evaluate(kg, "test", np.zeros((2, 4)), np.zeros((1, 4)),
                     Assumption.TRANSLATION, "l1")

    def test_filter_keys_must_fit_int64(self):
        huge = SimpleNamespace(num_entities=2**31, num_relations=2)
        with pytest.raises(ValueError, match="overflow"):
            KnownFilter(huge, known=frozenset())
        KnownFilter(SimpleNamespace(num_entities=2**31, num_relations=1), known=frozenset())

    @pytest.mark.parametrize("threads", [0, -4])
    def test_bad_thread_count_rejected(self, threads):
        kg = build_graph([("a", "r", "b")], [], [("a", "r", "b")])
        with pytest.raises(ValueError, match="threads"):
            evaluate(kg, "test", np.zeros((2, 4)), np.zeros((1, 4)),
                     Assumption.TRANSLATION, "l1", threads=threads)

    def test_unseen_test_entity_does_not_crash(self):
        kg = build_graph([("a", "r", "b")], [], [("zzz", "r", "a")])
        rng = np.random.default_rng(9)
        entities = rng.standard_normal((3, 4))
        relations = rng.standard_normal((1, 4))
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        assert np.isfinite(report.mrr)

    def test_report_dict_keys(self):
        kg, entities, relations = self.make_setup()
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        d = report.to_dict()
        assert set(d) >= {"mrr", "hits1", "hits3", "hits10"}


class TestKnownFilterLookup:
    def test_batch_equals_blocked_and_brute_force(self):
        rng = np.random.default_rng(17)
        kg = random_kg(rng, 9, 3, 40, 10)
        n, r_count = kg.num_entities, kg.num_relations
        # the smallest and largest key of each table: (0, 0, 0) and (n-1, r-1, n-1)
        known = known_triple_set(kg) | {(0, 0, 0), (n - 1, r_count - 1, n - 1)}
        kf = KnownFilter(kg, known)
        for side in ("head", "tail"):
            for r in range(r_count):
                fixed = np.array([0, n - 1, 4, 0, 7, n - 1, 2])  # ends, repeats
                rows, ids = kf.lookup(fixed, r, side)
                assert np.all(np.diff(rows) >= 0)
                for i, f in enumerate(fixed):
                    triple = Triple(f, r, 0) if side == "tail" else Triple(0, r, f)
                    got = ids[rows == i]
                    np.testing.assert_array_equal(got, kf.blocked(triple, side))
                    want = sorted(c for c in range(n)
                                  if ((f, r, c) if side == "tail" else (c, r, f)) in known)
                    assert got.tolist() == want
        assert kf.tail_keys[0] == 0 and kf.head_keys[0] == 0
        assert kf.tail_keys[-1] == kf.head_keys[-1] == n * n * r_count - 1

    def test_no_queries_and_no_known(self):
        kg = build_graph([("a", "r", "b")], [], [("a", "r", "b")])
        rows, ids = KnownFilter(kg).lookup(np.array([], dtype=np.int64), 0, "tail")
        assert rows.size == ids.size == 0
        rows, ids = KnownFilter(kg, known=frozenset()).lookup([0, 1], 0, "head")
        assert rows.size == ids.size == 0


class TestDegreeBuckets:
    def test_partition_sums_to_query_count(self):
        rng = np.random.default_rng(10)
        kg = random_kg(rng, 12, 3, 40, 10)
        entities = rng.standard_normal((kg.num_entities, 6))
        relations = rng.standard_normal((kg.num_relations, 6))
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        buckets = degree_bucket_report(report, build_index(kg))
        assert sum(b["queries"] for b in buckets) == 2 * len(kg.test)

    def test_geometric_edges_and_zero_bucket(self):
        kg = build_graph(
            [("a", "r", "b"), ("a", "r", "c"), ("a", "r", "d"), ("b", "r", "c")],
            [],
            [("e", "r", "a")],  # e unseen in train: degree 0
        )
        rng = np.random.default_rng(11)
        entities = rng.standard_normal((kg.num_entities, 4))
        relations = rng.standard_normal((kg.num_relations, 4))
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        buckets = degree_bucket_report(report, build_index(kg))
        # head query predicts e (degree 0), tail query predicts a (degree 3)
        zero = [b for b in buckets if b["max_degree"] == 1][0]
        assert zero["min_degree"] == 0 and zero["queries"] == 1
        deg3 = [b for b in buckets if b["min_degree"] == 2][0]
        assert deg3["max_degree"] == 4 and deg3["queries"] == 1

    def test_bucket_mrr_matches_manual_grouping(self):
        rng = np.random.default_rng(12)
        kg = random_kg(rng, 10, 2, 30, 8)
        index = build_index(kg)
        entities = rng.standard_normal((kg.num_entities, 6))
        relations = rng.standard_normal((kg.num_relations, 6))
        report = evaluate(kg, "test", entities, relations, Assumption.TRANSLATION, "l1")
        buckets = degree_bucket_report(report, index)
        # recompute one bucket by hand
        per_query = []
        for triple, rank in zip(report.triples, report.head_ranks):
            per_query.append((index.degree[triple.head], rank))
        for triple, rank in zip(report.triples, report.tail_ranks):
            per_query.append((index.degree[triple.tail], rank))
        for b in buckets:
            ranks = [r for d, r in per_query if b["min_degree"] <= d < b["max_degree"]]
            assert b["queries"] == len(ranks)
            if ranks:
                np.testing.assert_allclose(b["mrr"], np.mean([1.0 / r for r in ranks]),
                                           atol=1e-12)
