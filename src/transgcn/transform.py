"""Transformation assumptions that homogenize heterogeneous neighborhoods.

An incoming neighbor (j, r) of entity i estimates v_i as v_j composed with
r; an outgoing neighbor applies the inverse composition.  Under translation
the composition is vector addition; under rotation it is the coordinate-wise
complex product with a unit-modulus relation (inverse = conjugate product).
All functions are pure and tape-aware, operating on autodiff tensors.
"""

from __future__ import annotations

from enum import Enum

from . import autodiff as ad
from .autodiff import Tensor


class Assumption(Enum):
    TRANSLATION = "translation"
    ROTATION = "rotation"


def estimate_from_incoming(v: Tensor, r: Tensor, assumption: Assumption) -> Tensor:
    """Estimate of a target entity from a neighbor at the head of an edge."""
    if assumption is Assumption.TRANSLATION:
        return ad.add(v, r)
    return ad.complex_hadamard(v, r)


def estimate_from_outgoing(v: Tensor, r: Tensor, assumption: Assumption) -> Tensor:
    """Estimate of a source entity from a neighbor at the tail of an edge."""
    if assumption is Assumption.TRANSLATION:
        return ad.sub(v, r)
    return ad.complex_hadamard(v, ad.complex_conjugate(r))
