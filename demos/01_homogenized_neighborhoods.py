"""Walk through the neighborhood homogenization step by hand.

A neighbor connected by relation r is not directly comparable to the center
entity: under the translation assumption it sits one relation-vector away,
under the rotation assumption one unit rotation away. Applying the relation
(or its inverse) turns every neighbor into an estimate of the center, and
those estimates can be averaged like any homogeneous set.

Every estimate below is a row of ``autodiff.neighbor_sum``, the message
passing the encoder runs, on a tiny graph built for the purpose.
"""

import numpy as np

from transgcn import autodiff as ad
from transgcn.kg import build_graph, build_index


def neighbor_sums(edges, entities, relations, rotation):
    """neighbor_sum over the graph of the name triples ``edges``; entity and
    relation ids follow first appearance, head before tail."""
    index = build_index(build_graph(edges, [], []))
    return ad.neighbor_sum(ad.tensor(entities), ad.tensor(relations), index, rotation).values


rng = np.random.default_rng(0)
edge = [("head", "r", "tail")]  # entity 0 is the head, entity 1 the tail

print("translation: tail - relation estimates the head of an outgoing edge")
head = rng.normal(size=(1, 4))
rel = rng.normal(size=(1, 4))
tail = head + rel  # a perfect edge: h + r == t
est = neighbor_sums(edge, np.vstack([head, tail]), rel, rotation=False)[0]
print("  head     ", np.round(head[0], 3))
print("  estimate ", np.round(est, 3))
print("  (tail - relation recovers the head exactly on a perfect edge)")
print()

print("rotation: the conjugate rotation undoes the relation")
theta = rng.uniform(0, 2 * np.pi, size=(1, 2))
rel_rot = ad.phase_embedding(ad.tensor(theta)).values
head_c = rng.normal(size=(1, 4))  # [re | im] layout, 2 complex coordinates
zero = np.zeros_like(head_c)
tail_c = neighbor_sums(edge, np.vstack([head_c, zero]), rel_rot, rotation=True)[1:]
back = neighbor_sums(edge, np.vstack([zero, tail_c]), rel_rot, rotation=True)[:1]
print("  head          ", np.round(head_c[0], 3))
print("  rotated tail  ", np.round(tail_c[0], 3))
print("  rotated back  ", np.round(back[0], 3))
print("  max round-trip error", float(np.abs(back - head_c).max()))
print()

print("a center with three perfect neighbors averages to itself")
center = rng.normal(size=(1, 4))
rels = rng.normal(size=(3, 4))
star = [("center", f"r{k}", f"n{k}") for k in range(3)]  # outgoing edges center -> n_k
sums = neighbor_sums(star, np.vstack([center, center + rels]), rels, rotation=False)
print("  center   ", np.round(center[0], 3))
print("  mean est ", np.round(sums[0] / len(star), 3))
