"""Scoring of id triples, negative sampling, and the two training objectives.

Scores are negated distances between the relation's estimate of the tail
and the tail itself, so 0 is the best possible score.  Scoring is one fused
op, ``autodiff.triple_scores``: it walks the triples in fixed-size chunks
and recomputes each chunk in the backward pass, so no batch x d array is
kept.  The margin objective pairs with vanilla uniform corruption; the
self-adversarial objective weights negatives by a detached softmax over
their own scores.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import Assumption


def score_triples(
    entities: Tensor,
    relations: Tensor,
    heads,
    rels,
    tails,
    assumption: Assumption,
    norm: str = "l1",
) -> Tensor:
    """Row-wise score -||compose(e_h, r) - e_t|| of id triples; shape (B, 1)."""
    return ad.triple_scores(entities, relations, heads, rels, tails,
                            assumption is Assumption.ROTATION, norm)


def _gamma_const(gamma: float, scores: Tensor) -> Tensor:
    """The margin as a constant column of the scores' shape."""
    return ad.tensor(np.full(scores.shape, float(gamma)))


def batch_margin_loss(
    pos_scores: Tensor, neg_scores: Tensor, gamma: float, negatives_per_positive: int
) -> Tensor:
    """Mean over positives of the per-positive margin sums.

    ``neg_scores`` holds contiguous blocks of ``negatives_per_positive`` rows
    per positive, in positive order.
    """
    b = pos_scores.rows
    if neg_scores.rows != b * negatives_per_positive:
        raise ValueError("negative block layout does not match the positive count")
    repeat = np.repeat(np.arange(b), negatives_per_positive)
    pos_rep = ad.gather_rows(pos_scores, repeat)
    hinge = ad.relu(ad.add(ad.sub(neg_scores, pos_rep), _gamma_const(gamma, neg_scores)))
    return ad.scale(ad.sum_all(hinge), 1.0 / b)


def batch_self_adv_weights(neg_scores, alpha: float, negatives_per_positive: int) -> np.ndarray:
    """Softmax of alpha * score within each positive's block of negatives.

    Returns a column (n, 1).  Treated as constants downstream: no gradient
    flows through the weights.
    """
    values = neg_scores.values if isinstance(neg_scores, Tensor) else np.asarray(neg_scores)
    s = float(alpha) * values.astype(np.float64).reshape(-1, negatives_per_positive)
    s = s - s.max(axis=1, keepdims=True)
    e = np.exp(s)
    return (e / e.sum(axis=1, keepdims=True)).reshape(-1, 1)


def batch_self_adv_loss(
    pos_scores: Tensor,
    neg_scores: Tensor,
    weights: np.ndarray,
    gamma: float,
    negatives_per_positive: int,
) -> Tensor:
    """Mean over positives of -log s(g + f_pos) - sum_i w_i log s(-f_i - g)."""
    b = pos_scores.rows
    if neg_scores.rows != b * negatives_per_positive:
        raise ValueError("negative block layout does not match the positive count")
    if np.asarray(weights).shape != (neg_scores.rows, 1):
        raise ValueError("weights must be a column matching the negative scores")
    pos_term = ad.sum_all(ad.log_sigmoid(ad.add(pos_scores, _gamma_const(gamma, pos_scores))))
    neg_logs = ad.log_sigmoid(ad.scale(ad.add(neg_scores, _gamma_const(gamma, neg_scores)), -1.0))
    neg_term = ad.sum_all(ad.hadamard(neg_logs, ad.tensor(weights)))
    return ad.scale(ad.add(pos_term, neg_term), -1.0 / b)


def sample_negatives(
    heads: np.ndarray,
    rels: np.ndarray,
    tails: np.ndarray,
    n: int,
    num_entities: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` corruptions per positive, as contiguous per-positive blocks.

    Each corrupts the head or the tail with equal odds; the replacement is
    uniform over the entities other than the original.  Unfiltered: a
    corruption may be a known triple.
    """
    if num_entities < 2:
        raise ValueError("need at least two entities to corrupt a triple")
    nh, nr, nt = (np.repeat(np.asarray(a, dtype=np.int64), n) for a in (heads, rels, tails))
    corrupt_head = rng.integers(0, 2, size=nh.size).astype(bool)
    draw = rng.integers(0, num_entities - 1, size=nh.size)
    draw += draw >= np.where(corrupt_head, nh, nt)  # uniform over entities != original
    return np.where(corrupt_head, draw, nh), nr, np.where(corrupt_head, nt, draw)
