"""Triple scoring, negative sampling, and the two training losses."""

import numpy as np
import pytest

import transgcn.autodiff as ad
from transgcn.objective import (
    batch_margin_loss,
    batch_self_adv_loss,
    batch_self_adv_weights,
    sample_negatives,
    score_triples,
)
from transgcn.transform import Assumption
from unfused import score

LN2 = float(np.log(2.0))


def col(values):
    return ad.tensor(np.asarray(values, dtype=float).reshape(-1, 1))


class TestScore:
    def test_translation_l1(self):
        s = score(
            ad.tensor([[1.0, 2.0]]), ad.tensor([[0.5, -1.0]]), ad.tensor([[2.0, 0.0]]),
            Assumption.TRANSLATION, "l1",
        )
        np.testing.assert_allclose(s.values, [[-1.5]], atol=1e-15)

    def test_translation_l2(self):
        s = score(
            ad.tensor([[1.0, 2.0]]), ad.tensor([[0.5, -1.0]]), ad.tensor([[2.0, 0.0]]),
            Assumption.TRANSLATION, "l2",
        )
        np.testing.assert_allclose(s.values, [[-np.sqrt(1.25)]], rtol=1e-15)

    def test_perfect_triple_scores_zero_translation(self):
        h, r = np.array([[0.3, -0.7]]), np.array([[1.1, 0.4]])
        s = score(ad.tensor(h), ad.tensor(r), ad.tensor(h + r), Assumption.TRANSLATION, "l1")
        np.testing.assert_array_equal(s.values, [[0.0]])

    def test_perfect_triple_scores_zero_rotation(self):
        s = score(
            ad.tensor([[3.0, 4.0]]), ad.tensor([[0.6, 0.8]]), ad.tensor([[-1.4, 4.8]]),
            Assumption.ROTATION, "l1",
        )
        np.testing.assert_allclose(s.values, [[0.0]], atol=1e-14)

    def test_zero_is_the_maximum(self):
        rng = np.random.default_rng(0)
        for norm in ("l1", "l2"):
            h = rng.standard_normal((50, 6))
            r = rng.standard_normal((50, 6))
            t = rng.standard_normal((50, 6))
            s = score(ad.tensor(h), ad.tensor(r), ad.tensor(t), Assumption.TRANSLATION, norm)
            assert (s.values <= 0).all()

    def test_batched_rows_score_independently(self):
        rng = np.random.default_rng(1)
        h, r, t = (rng.standard_normal((4, 6)) for _ in range(3))
        batch = score(ad.tensor(h), ad.tensor(r), ad.tensor(t), Assumption.ROTATION, "l2").values
        for i in range(4):
            one = score(
                ad.tensor(h[i : i + 1]), ad.tensor(r[i : i + 1]), ad.tensor(t[i : i + 1]),
                Assumption.ROTATION, "l2",
            ).values
            np.testing.assert_allclose(batch[i], one[0], rtol=1e-12)

    def test_translation_invariant_to_global_entity_shift(self):
        rng = np.random.default_rng(2)
        h, r, t = (rng.standard_normal((5, 4)) for _ in range(3))
        c = rng.standard_normal((1, 4))
        s0 = score(ad.tensor(h), ad.tensor(r), ad.tensor(t), Assumption.TRANSLATION, "l1").values
        s1 = score(
            ad.tensor(h + c), ad.tensor(r), ad.tensor(t + c), Assumption.TRANSLATION, "l1"
        ).values
        np.testing.assert_allclose(s0, s1, atol=1e-12)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            score(ad.tensor([[1.0]]), ad.tensor([[1.0]]), ad.tensor([[1.0]]),
                  Assumption.TRANSLATION, "l3")

    def test_score_triples_gathers(self):
        entities = ad.tensor([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        relations = ad.tensor([[1.0, 1.0]])
        s = score_triples(
            entities, relations, np.array([0]), np.array([0]), np.array([1]),
            Assumption.TRANSLATION, "l1",
        )
        np.testing.assert_array_equal(s.values, [[0.0]])


class TestMarginLoss:
    def test_inactive_when_positive_beats_negative_by_margin(self):
        neg = col([-3.0])
        loss = batch_margin_loss(col([-1.0]), neg, gamma=1.0, negatives_per_positive=neg.rows)
        np.testing.assert_array_equal(loss.values, [[0.0]])

    def test_active_hinge(self):
        neg = col([-1.0])
        loss = batch_margin_loss(col([-3.0]), neg, gamma=1.0, negatives_per_positive=neg.rows)
        np.testing.assert_array_equal(loss.values, [[3.0]])

    def test_zero_at_equal_scores_zero_margin(self):
        neg = col([-2.0])
        loss = batch_margin_loss(col([-2.0]), neg, gamma=0.0, negatives_per_positive=neg.rows)
        np.testing.assert_array_equal(loss.values, [[0.0]])

    def test_sums_over_negatives(self):
        # hinges: max(0, -1+gamma-(-3))=0 with gamma=1? recompute: terms are
        # relu(neg - pos + gamma): (-3+1+1)=relu(-1)=0 and (-1.5+1+1)=0.5
        neg = col([-3.0, -1.5])
        loss = batch_margin_loss(col([-1.0]), neg, gamma=1.0, negatives_per_positive=neg.rows)
        np.testing.assert_allclose(loss.values, [[0.5]], atol=1e-15)

    def test_batch_is_mean_of_per_positive(self):
        rng = np.random.default_rng(3)
        b, n = 5, 4
        pos = -rng.uniform(0, 3, size=(b, 1))
        neg = -rng.uniform(0, 3, size=(b * n, 1))
        batch = batch_margin_loss(ad.tensor(pos), ad.tensor(neg), gamma=1.0,
                                  negatives_per_positive=n)
        singles = [
            float(batch_margin_loss(ad.tensor(pos[i : i + 1]),
                                    ad.tensor(neg[i * n : (i + 1) * n]), 1.0,
                                    negatives_per_positive=n).values[0, 0])
            for i in range(b)
        ]
        np.testing.assert_allclose(batch.values[0, 0], np.mean(singles), rtol=1e-12)

    def test_gradient_direction(self):
        pos = ad.tensor([[-3.0]], requires_grad=True)
        neg = ad.tensor([[-1.0]], requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(tape, batch_margin_loss(pos, neg, gamma=1.0,
                                                negatives_per_positive=neg.rows))
        assert pos.grad[0, 0] < 0  # pushing the positive score up lowers loss
        assert neg.grad[0, 0] > 0


class TestSelfAdvWeights:
    def test_frozen_two_scores(self):
        neg = col([0.0, np.log(3.0)])
        w = batch_self_adv_weights(neg, alpha=1.0, negatives_per_positive=neg.rows)
        np.testing.assert_allclose(w, [[0.25], [0.75]], rtol=1e-12)

    def test_alpha_zero_uniform(self):
        neg = col([-5.0, 1.0, 40.0, 2.0])
        w = batch_self_adv_weights(neg, alpha=0.0, negatives_per_positive=neg.rows)
        np.testing.assert_allclose(w, np.full((4, 1), 0.25), rtol=1e-15)

    def test_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(-20, 20, size=(8, 1))
        w = batch_self_adv_weights(ad.tensor(s), alpha=1.7, negatives_per_positive=len(s))
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)
        w_shift = batch_self_adv_weights(ad.tensor(s + 300.0), alpha=1.7,
                                         negatives_per_positive=len(s))
        np.testing.assert_allclose(w, w_shift, atol=1e-12)

    def test_extreme_scores_no_overflow(self):
        neg = col([1e4, -1e4])
        w = batch_self_adv_weights(neg, alpha=1.0, negatives_per_positive=neg.rows)
        np.testing.assert_allclose(w, [[1.0], [0.0]], atol=1e-12)

    def test_batch_blocks_normalize_independently(self):
        s = col([0.0, np.log(3.0), 5.0, 5.0])
        w = batch_self_adv_weights(s, alpha=1.0, negatives_per_positive=2)
        np.testing.assert_allclose(w, [[0.25], [0.75], [0.5], [0.5]], rtol=1e-12)


class TestSelfAdvLoss:
    def test_frozen_symmetric_case(self):
        # f(pos) = -gamma and one negative at -gamma gives ln2 + ln2
        neg = col([-2.0])
        loss = batch_self_adv_loss(col([-2.0]), neg, np.array([[1.0]]), gamma=2.0,
                                   negatives_per_positive=neg.rows)
        np.testing.assert_allclose(loss.values, [[2 * LN2]], rtol=1e-12)

    def test_positive_term_vanishes_for_good_positive(self):
        neg = col([-50.0])
        loss = batch_self_adv_loss(col([-0.01]), neg, np.array([[1.0]]), gamma=12.0,
                                   negatives_per_positive=neg.rows)
        assert 0 < loss.values[0, 0] < 1e-4

    def test_equal_negatives_match_single_negative(self):
        neg2, neg1 = col([-3.0, -3.0]), col([-3.0])
        w = batch_self_adv_weights(neg2, alpha=1.0, negatives_per_positive=neg2.rows)
        two = batch_self_adv_loss(col([-1.0]), neg2, w, gamma=2.0,
                                  negatives_per_positive=neg2.rows)
        one = batch_self_adv_loss(col([-1.0]), neg1, np.array([[1.0]]), gamma=2.0,
                                  negatives_per_positive=neg1.rows)
        np.testing.assert_allclose(two.values, one.values, rtol=1e-12)

    def test_alpha_zero_is_plain_mean(self):
        rng = np.random.default_rng(5)
        neg = -rng.uniform(0, 5, size=(6, 1))
        w = batch_self_adv_weights(ad.tensor(neg), alpha=0.0, negatives_per_positive=len(neg))
        loss = batch_self_adv_loss(col([-1.0]), ad.tensor(neg), w, gamma=2.0,
                                   negatives_per_positive=len(neg))
        direct = -np.log(1 / (1 + np.exp(-(2.0 - 1.0)))) - np.mean(
            np.log(1 / (1 + np.exp(-(-neg - 2.0))))
        )
        np.testing.assert_allclose(loss.values[0, 0], direct, rtol=1e-9)

    def test_deep_negative_scores_stay_finite(self):
        neg = col([-900.0])
        loss = batch_self_adv_loss(col([-800.0]), neg, np.array([[1.0]]), gamma=12.0,
                                   negatives_per_positive=neg.rows)
        assert np.isfinite(loss.values).all()

    def test_batch_is_mean_of_per_positive(self):
        rng = np.random.default_rng(6)
        b, n = 4, 3
        pos = -rng.uniform(0, 4, size=(b, 1))
        neg = -rng.uniform(0, 4, size=(b * n, 1))
        w = batch_self_adv_weights(ad.tensor(neg), alpha=0.8, negatives_per_positive=n)
        batch = batch_self_adv_loss(ad.tensor(pos), ad.tensor(neg), w, gamma=3.0,
                                    negatives_per_positive=n)
        singles = [
            float(
                batch_self_adv_loss(
                    ad.tensor(pos[i : i + 1]),
                    ad.tensor(neg[i * n : (i + 1) * n]),
                    w[i * n : (i + 1) * n],
                    3.0,
                    negatives_per_positive=n,
                ).values[0, 0]
            )
            for i in range(b)
        ]
        np.testing.assert_allclose(batch.values[0, 0], np.mean(singles), rtol=1e-12)

    def test_weights_carry_no_gradient(self):
        neg = ad.tensor([[-1.0], [-2.0]], requires_grad=True)
        pos = ad.tensor([[-1.0]], requires_grad=True)
        with ad.Tape() as tape:
            w = batch_self_adv_weights(neg, alpha=1.0, negatives_per_positive=neg.rows)
            loss = batch_self_adv_loss(pos, neg, w, gamma=2.0, negatives_per_positive=neg.rows)
            ad.backward(tape, loss)
        # gradient equals the weighted log-sigmoid path only: d/dneg_i = w_i * sigmoid(neg_i + gamma)
        sig = 1 / (1 + np.exp(-(neg.values + 2.0)))
        np.testing.assert_allclose(neg.grad, w * sig, rtol=1e-9)


def ids(*values):
    return np.asarray(values, dtype=np.int64)


class TestSampling:
    def test_count_and_single_slot_corruption(self):
        rng = np.random.default_rng(7)
        heads, rels, tails = ids(0, 3, 4, 2), ids(0, 1, 2, 1), ids(1, 3, 0, 4)
        n = 10
        nh, nr, nt = sample_negatives(heads, rels, tails, n, num_entities=5, rng=rng)
        assert nh.shape == nr.shape == nt.shape == (len(heads) * n,)
        for k in range(len(heads)):
            block = slice(k * n, (k + 1) * n)  # positive k's contiguous rows
            changed_head = nh[block] != heads[k]
            changed_tail = nt[block] != tails[k]
            assert np.all(nr[block] == rels[k])
            assert np.all(changed_head != changed_tail)  # exactly one slot

    def test_replacement_never_equals_original(self):
        rng = np.random.default_rng(8)
        nh, _, nt = sample_negatives(ids(2), ids(0), ids(2), 500, num_entities=3, rng=rng)
        assert np.all((nh != 2) != (nt != 2))

    def test_needs_two_entities(self):
        with pytest.raises(ValueError):
            sample_negatives(ids(0), ids(0), ids(0), 1, 1, np.random.default_rng(0))

    def test_uniformity_chi_squared(self):
        # 3 entities: cells (head->1, head->2, tail->0, tail->2), each p=1/4
        rng = np.random.default_rng(9)
        n = 4000
        nh, _, nt = sample_negatives(ids(0), ids(0), ids(1), n, num_entities=3, rng=rng)
        head_side = nh != 0
        counts = [
            np.sum(head_side & (nh == 1)), np.sum(head_side & (nh == 2)),
            np.sum(~head_side & (nt == 0)), np.sum(~head_side & (nt == 2)),
        ]
        assert sum(counts) == n
        expected = n / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 11.345  # dof 3, p = 0.01

    def test_deterministic_given_seed(self):
        pos = ids(1, 4), ids(2, 0), ids(3, 9)
        a = sample_negatives(*pos, 20, num_entities=10, rng=np.random.default_rng(42))
        b = sample_negatives(*pos, 20, num_entities=10, rng=np.random.default_rng(42))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_filter_off_by_default_allows_known(self):
        rng = np.random.default_rng(11)
        # with only 3 entities some corruption will hit this known triple quickly
        nh, nr, nt = sample_negatives(ids(0), ids(0), ids(1), 200, num_entities=3, rng=rng)
        assert np.any((nh == 2) & (nr == 0) & (nt == 1))
