"""Seeded input generation: dataset TSV files and the checkpoints to rank with.

Everything here is derived from the workload seed alone, so the same seed
gives byte-identical inputs.  The program under test only ever sees the
files written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MidscaleShape:
    """Size and skew of the synthetic mid-scale graph."""

    entities: int
    relations: int
    train: int
    valid: int
    test: int
    clusters: int
    entity_skew: float = 0.75  # popularity weight of the k-th entity is (k + 1) ** -skew
    relation_skew: float = 1.0


MIDSCALE = MidscaleShape(entities=5000, relations=100, train=50_000, valid=50, test=200,
                         clusters=50)
MIDSCALE_SMOKE = MidscaleShape(entities=400, relations=20, train=3000, valid=20, test=40,
                               clusters=10)


def write_tsv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in rows)


def write_splits(directory: str, train, valid, test) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        write_tsv(os.path.join(directory, name), rows)


def kinship_splits(seed: int):
    """Name rows of the synthetic kinship graph (104 entities, 10 relations)."""
    from transgcn.kinship import generate_kinship

    kg = generate_kinship(seed)

    def named(triples):
        return [(kg.entity_names[h], kg.relation_names[r], kg.entity_names[t])
                for h, r, t in triples]

    return named(kg.train), named(kg.valid), named(kg.test)


def midscale_splits(seed: int, shape: MidscaleShape = MIDSCALE):
    """Skewed synthetic graph with learnable cluster structure.

    Entities fall into clusters; relation r maps cluster c to cluster
    c + shift_r.  Heads, tails within the target cluster, and relations are
    drawn with Zipf-like popularity, so a few entities and relations cover
    most edges.  Every entity gets one backbone edge as a head, so every
    entity occurs in train.  Valid and test edges come from the same
    distribution and never repeat a train edge.
    """
    rng = np.random.default_rng(seed)
    n, c = shape.entities, shape.clusters
    ent_w = rng.permutation((np.arange(n) + 1.0) ** -shape.entity_skew)
    rel_w = rng.permutation((np.arange(shape.relations) + 1.0) ** -shape.relation_skew)
    rel_p = rel_w / rel_w.sum()
    ent_p = ent_w / ent_w.sum()
    cluster = rng.integers(0, c, size=n)
    shift = rng.integers(1, c, size=shape.relations)
    members = [np.flatnonzero(cluster == k) for k in range(c)]
    member_p = [ent_w[m] / ent_w[m].sum() for m in members]

    def edges(heads: np.ndarray) -> np.ndarray:
        rels = rng.choice(shape.relations, size=heads.size, p=rel_p)
        target = (cluster[heads] + shift[rels]) % c
        tails = np.empty_like(heads)
        for k in range(c):
            pick = np.flatnonzero(target == k)
            if pick.size:
                tails[pick] = rng.choice(members[k], size=pick.size, p=member_p[k])
        return np.stack([heads, rels, tails], axis=1)

    seen: set[tuple[int, int, int]] = set()
    train: list[tuple[int, int, int]] = []
    for row in edges(rng.permutation(n)):
        key = tuple(int(x) for x in row)
        if key not in seen:
            seen.add(key)
            train.append(key)
    held: list[tuple[int, int, int]] = []
    wanted = shape.train + shape.valid + shape.test
    while len(train) + len(held) < wanted:
        for row in edges(rng.choice(n, size=wanted, p=ent_p)):
            key = tuple(int(x) for x in row)
            if key in seen:
                continue
            seen.add(key)
            if len(train) < shape.train:
                train.append(key)
            elif len(held) < shape.valid + shape.test:
                held.append(key)
    order = rng.permutation(len(train))

    def named(rows):
        return [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows]

    return (named([train[i] for i in order]), named(held[: shape.valid]),
            named(held[shape.valid:]))
