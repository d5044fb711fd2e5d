"""Unfused reference scoring, the op chain that ``autodiff.triple_scores`` fuses.

Tests compare the fused op against it: forward values must be bit-identical
and gradients equal up to summation order.
"""

import transgcn.autodiff as ad
from transgcn.transform import Assumption, estimate_from_incoming


def score(h, r, t, assumption: Assumption, norm: str = "l1"):
    """Row-wise score -||compose(h, r) - t|| of gathered rows; shape (B, 1)."""
    diff = ad.sub(estimate_from_incoming(h, r, assumption), t)
    if norm == "l1":
        dist = ad.row_l1_norm(diff)
    elif norm == "l2":
        dist = ad.row_l2_norm(diff)
    else:
        raise ValueError(f"unknown norm {norm!r}, expected 'l1' or 'l2'")
    return ad.scale(dist, -1.0)


def score_triples(entities, relations, heads, rels, tails, assumption: Assumption,
                  norm: str = "l1"):
    """``score`` of id triples through three gathers."""
    return score(ad.gather_rows(entities, heads), ad.gather_rows(relations, rels),
                 ad.gather_rows(entities, tails), assumption, norm)
