"""Deterministic synthetic kinship graph generator.

Three generations: founder couples, their children (who partly intermarry),
and grandchildren.  Ten relation types are derived from the family
structure, so several of them are exact compositions of others:

    grandparent = parent of parent        auntuncle = sibling of parent
    cousin      = child of auntuncle      inlaw     = parent or sibling of spouse

A triple (h, r, t) reads "h is a(n) r of t".  parent/child,
grandparent/grandchild, and auntuncle/nephewniece are inverse pairs;
spouse, sibling, and cousin are symmetric (both directions stored).

At the default size the graph has exactly 104 entities (24 founders,
44 children, 36 grandchildren) and 10 relations.  The eval splits are
carved out so that every entity and relation still occurs in train.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .kg import KnowledgeGraph, build_graph

RELATION_NAMES = (
    "parent",
    "child",
    "spouse",
    "sibling",
    "grandparent",
    "grandchild",
    "auntuncle",
    "nephewniece",
    "cousin",
    "inlaw",
)

# defaults chosen so entities total 104 and triples land near 1500/150/150
FOUNDER_COUPLES = 12
GEN1_PER_12 = 44
GEN1_COUPLES_PER_12 = 14
GEN2_PER_12 = 36
MAX_CHILDREN = 5


def _spread_children(rng, groups: int, total: int, base: int, cap: int) -> list[int]:
    counts = [base] * groups
    extra = total - base * groups
    if extra < 0 or total > cap * groups:
        raise ValueError(f"cannot place {total} children in {groups} families")
    for _ in range(extra):
        open_groups = [i for i in range(groups) if counts[i] < cap]
        counts[open_groups[int(rng.integers(len(open_groups)))]] += 1
    return counts


def generate_kinship(
    seed: int = 0,
    founder_couples: int = FOUNDER_COUPLES,
    valid_size: int = 150,
    test_size: int = 150,
) -> KnowledgeGraph:
    """Build the toy graph; identical output for identical arguments."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if founder_couples < 2:  # one couple's children have no other family to marry into
        raise ValueError(f"founder couples must be >= 2, got {founder_couples}")
    if min(valid_size, test_size) < 0:
        raise ValueError(f"split sizes must be >= 0, got valid {valid_size}, test {test_size}")
    rng = np.random.default_rng(seed)
    weddings = GEN1_COUPLES_PER_12 * founder_couples // FOUNDER_COUPLES
    founders = [f"g0_{i:02d}" for i in range(2 * founder_couples)]
    gen1 = [f"g1_{i:02d}" for i in range(GEN1_PER_12 * founder_couples // FOUNDER_COUPLES)]
    gen2 = [f"g2_{i:02d}" for i in range(GEN2_PER_12 * founder_couples // FOUNDER_COUPLES)]

    spouse_of: dict[str, str] = {}
    parents_of: dict[str, tuple[str, str]] = {}
    family_of: dict[str, int] = {}
    siblings_of: dict[str, list[str]] = {}

    def bear(kids, couples, first_family: int, base: int, cap: int) -> None:
        """Hand out `kids` in order, base to cap per couple; family ids count from first_family."""
        counts = _spread_children(rng, len(couples), len(kids), base, cap)
        start = 0
        for family, (couple, k) in enumerate(zip(couples, counts), first_family):
            brood = kids[start : start + k]
            start += k
            for kid in brood:
                parents_of[kid] = couple
                family_of[kid] = family
                siblings_of[kid] = [s for s in brood if s != kid]

    founder_pairs = list(zip(founders[::2], founders[1::2]))
    for a, b in founder_pairs:
        spouse_of[a], spouse_of[b] = b, a
    bear(gen1, founder_pairs, 0, 3, MAX_CHILDREN)

    # marry across families, greedily along a shuffled order
    order = [gen1[i] for i in rng.permutation(len(gen1))]
    for pos, a in enumerate(order):
        if len(spouse_of) == 2 * (founder_couples + weddings):
            break
        if a in spouse_of:
            continue
        for b in order[pos + 1 :]:
            if b not in spouse_of and family_of[a] != family_of[b]:
                spouse_of[a], spouse_of[b] = b, a
                break
    # each gen-1 couple once, named by its earlier member, in gen-1 order
    couples = [(a, spouse_of[a]) for a in gen1 if gen1.index(a) < gen1.index(spouse_of.get(a, a))]
    bear(gen2, couples, founder_couples, 2, 3)

    triples = [(p, "spouse", spouse_of[p]) for p in founders + gen1 if p in spouse_of]
    for kid, (pa, pb) in parents_of.items():
        triples += [(pa, "parent", kid), (pb, "parent", kid),
                    (kid, "child", pa), (kid, "child", pb)]
    for kid, sibs in siblings_of.items():
        triples += [(kid, "sibling", s) for s in sibs]
    for kid in gen2:
        for parent in parents_of[kid]:
            for grand in parents_of[parent]:
                triples += [(grand, "grandparent", kid), (kid, "grandchild", grand)]
            for uncle in siblings_of[parent]:
                triples += [(uncle, "auntuncle", kid), (kid, "nephewniece", uncle)]
    for kid in gen2:
        uncles = [u for p in parents_of[kid] for u in siblings_of[p]]
        triples += [(kid, "cousin", other) for other in gen2 if family_of[other] != family_of[kid]
                    and any(u in parents_of[other] for u in uncles)]
    for person in gen1:
        if person in spouse_of:
            partner = spouse_of[person]
            for kin in (*parents_of[partner], *siblings_of[partner]):
                triples += [(kin, "inlaw", person), (person, "inlaw", kin)]

    return _split(rng, list(dict.fromkeys(triples)), valid_size, test_size)


def _split(
    rng, triples: list[tuple[str, str, str]], valid_size: int, test_size: int
) -> KnowledgeGraph:
    """Move eval triples out only while train still covers every name."""
    uses = Counter(name for row in triples for name in row)  # entity, relation names differ
    wanted = valid_size + test_size
    chosen: list[int] = []
    for idx in rng.permutation(len(triples)).tolist():
        if len(chosen) == wanted:
            break
        h, r, t = triples[idx]
        if uses[h] >= (2 if h != t else 3) and uses[t] >= 2 and uses[r] >= 2:
            uses.subtract(triples[idx])
            chosen.append(idx)
    if len(chosen) < wanted:
        raise ValueError(f"asked for {valid_size} valid and {test_size} test triples, but only "
                         f"{len(chosen)} of {len(triples)} can leave train while it covers "
                         "every name")
    taken = set(chosen)
    train = [row for i, row in enumerate(triples) if i not in taken]
    valid = [triples[i] for i in chosen[:valid_size]]
    test = [triples[i] for i in chosen[valid_size:]]
    return build_graph(train, valid, test)
