"""Walk through the neighborhood homogenization step by hand.

A neighbor connected by relation r is not directly comparable to the center
entity: under the translation assumption it sits one relation-vector away,
under the rotation assumption one unit rotation away. Applying the relation
(or its inverse) turns every neighbor into an estimate of the center, and
those estimates can be averaged like any homogeneous set.
"""

import numpy as np

from transgcn import autodiff as ad
from transgcn.encoder import Assumption
from transgcn.transform import (
    estimate_from_incoming,
    estimate_from_outgoing,
)

rng = np.random.default_rng(0)

print("translation: tail + relation estimates the head of an incoming edge")
head = rng.normal(size=(1, 4))
rel = rng.normal(size=(1, 4))
tail = head + rel  # a perfect edge: h + r == t
est = estimate_from_outgoing(ad.tensor(tail), ad.tensor(rel), Assumption.TRANSLATION)
print("  head     ", np.round(head[0], 3))
print("  estimate ", np.round(est.values[0], 3))
print("  (tail - relation recovers the head exactly on a perfect edge)")
print()

print("rotation: the conjugate rotation undoes the relation")
theta = rng.uniform(0, 2 * np.pi, size=(1, 2))
rel_rot = ad.phase_embedding(ad.tensor(theta))
head_c = rng.normal(size=(1, 4))  # [re | im] layout, 2 complex coordinates
tail_c = estimate_from_incoming(ad.tensor(head_c), rel_rot, Assumption.ROTATION)
back = estimate_from_outgoing(tail_c, rel_rot, Assumption.ROTATION)
print("  head          ", np.round(head_c[0], 3))
print("  rotated tail  ", np.round(tail_c.values[0], 3))
print("  rotated back  ", np.round(back.values[0], 3))
print("  max round-trip error", float(np.abs(back.values - head_c).max()))
print()

print("a center with three perfect neighbors averages to itself")
center = rng.normal(size=(1, 4))
estimates = []
for _ in range(3):
    r = rng.normal(size=(1, 4))
    neighbor_tail = center + r  # outgoing edge center -> tail
    estimates.append(
        estimate_from_outgoing(
            ad.tensor(neighbor_tail), ad.tensor(r), Assumption.TRANSLATION
        ).values
    )
mean_est = np.mean(np.concatenate(estimates, axis=0), axis=0)
print("  center   ", np.round(center[0], 3))
print("  mean est ", np.round(mean_est, 3))
