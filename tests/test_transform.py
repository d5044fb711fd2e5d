"""Translation/rotation neighborhood transformation operators."""

import numpy as np
import pytest

import transgcn.autodiff as ad
from transgcn.errors import ShapeError
from transgcn.transform import (
    Assumption,
    estimate_from_incoming,
    estimate_from_outgoing,
)


class TestTranslation:
    def test_incoming_adds_relation(self):
        out = estimate_from_incoming(
            ad.tensor([[1.0, 2.0]]), ad.tensor([[0.5, -1.0]]), Assumption.TRANSLATION
        )
        np.testing.assert_array_equal(out.values, [[1.5, 1.0]])

    def test_outgoing_subtracts_relation(self):
        out = estimate_from_outgoing(
            ad.tensor([[1.0, 2.0]]), ad.tensor([[0.5, -1.0]]), Assumption.TRANSLATION
        )
        np.testing.assert_array_equal(out.values, [[0.5, 3.0]])

    def test_round_trip_recovers_entity(self):
        rng = np.random.default_rng(0)
        v, r = rng.standard_normal((5, 8)), rng.standard_normal((5, 8))
        est = estimate_from_incoming(ad.tensor(v), ad.tensor(r), Assumption.TRANSLATION)
        back = estimate_from_outgoing(est, ad.tensor(r), Assumption.TRANSLATION)
        np.testing.assert_allclose(back.values, v, atol=1e-12)


class TestRotation:
    def test_incoming_is_complex_product(self):
        out = estimate_from_incoming(
            ad.tensor([[3.0, 4.0]]), ad.tensor([[0.6, 0.8]]), Assumption.ROTATION
        )
        np.testing.assert_allclose(out.values, [[-1.4, 4.8]], atol=1e-15)

    def test_outgoing_applies_conjugate(self):
        # (-1.4+4.8i)(0.6-0.8i) = 3+4i: outgoing inverts incoming for unit r
        out = estimate_from_outgoing(
            ad.tensor([[-1.4, 4.8]]), ad.tensor([[0.6, 0.8]]), Assumption.ROTATION
        )
        np.testing.assert_allclose(out.values, [[3.0, 4.0]], rtol=1e-15)

    def test_round_trip_with_unit_relation(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((6, 10))
        theta = ad.tensor(rng.uniform(-np.pi, np.pi, size=(6, 5)))
        r = ad.phase_embedding(theta)
        est = estimate_from_incoming(ad.tensor(v), r, Assumption.ROTATION)
        back = estimate_from_outgoing(est, r, Assumption.ROTATION)
        np.testing.assert_allclose(back.values, v, atol=1e-12)

    def test_modulus_preserved_by_unit_rotation(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((4, 8))
        r = ad.phase_embedding(ad.tensor(rng.uniform(0, 2 * np.pi, size=(4, 4))))
        est = estimate_from_incoming(ad.tensor(v), r, Assumption.ROTATION).values
        np.testing.assert_allclose(
            np.hypot(est[:, :4], est[:, 4:]), np.hypot(v[:, :4], v[:, 4:]), atol=1e-12
        )

    def test_odd_width_rejected(self):
        with pytest.raises(ShapeError):
            estimate_from_incoming(
                ad.tensor([[1.0, 2.0, 3.0]]), ad.tensor([[1.0, 0.0, 0.0]]), Assumption.ROTATION
            )


class TestPhaseEmbedding:
    def test_zero_and_quarter_turn(self):
        out = ad.phase_embedding(ad.tensor([[0.0, np.pi / 2]]))
        np.testing.assert_allclose(out.values, [[1.0, 0.0, 0.0, 1.0]], atol=1e-15)

    def test_unit_modulus_outside_principal_range(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-100.0, 100.0, size=(10, 6))
        out = ad.phase_embedding(ad.tensor(theta)).values
        np.testing.assert_allclose(np.hypot(out[:, :6], out[:, 6:]), 1.0, atol=1e-12)

    def test_gradient_flows_to_phases(self):
        theta = ad.tensor([[0.3, -1.2]], requires_grad=True)
        with ad.Tape() as tape:
            r = ad.phase_embedding(theta)
            est = estimate_from_incoming(ad.tensor([[1.0, 0.5, -0.5, 2.0]]), r, Assumption.ROTATION)
            ad.backward(tape, ad.sum_all(est))
        assert np.abs(theta.grad).sum() > 0


class TestAssumption:
    def test_parse_from_string(self):
        assert Assumption("translation") is Assumption.TRANSLATION
        assert Assumption("rotation") is Assumption.ROTATION

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError):
            Assumption("projection")
