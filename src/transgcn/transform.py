"""Transformation assumptions that homogenize heterogeneous neighborhoods.

An incoming neighbor (j, r) of entity i estimates v_i as v_j composed with
r; an outgoing neighbor applies the inverse composition.  Under translation
the composition is vector addition; under rotation it is the coordinate-wise
complex product with a unit-modulus relation (inverse = conjugate product).
The one implementation of this rule is ``autodiff.neighbor_sum``, which sums
the estimates per entity; this module names the two assumptions.
"""

from __future__ import annotations

from enum import Enum


class Assumption(Enum):
    TRANSLATION = "translation"
    ROTATION = "rotation"
