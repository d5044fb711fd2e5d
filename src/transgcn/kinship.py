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
    if founder_couples < 2:  # one couple's children have no other family to marry into
        raise ValueError(f"founder couples must be >= 2, got {founder_couples}")
    if min(valid_size, test_size) < 0:
        raise ValueError(f"split sizes must be >= 0, got valid {valid_size}, test {test_size}")
    rng = np.random.default_rng(seed)
    gen1_total = GEN1_PER_12 * founder_couples // FOUNDER_COUPLES
    gen1_couples = GEN1_COUPLES_PER_12 * founder_couples // FOUNDER_COUPLES
    gen2_total = GEN2_PER_12 * founder_couples // FOUNDER_COUPLES

    founders = [f"g0_{i:02d}" for i in range(2 * founder_couples)]
    gen1 = [f"g1_{i:02d}" for i in range(gen1_total)]
    gen2 = [f"g2_{i:02d}" for i in range(gen2_total)]

    spouse_of: dict[str, str] = {}
    for i in range(founder_couples):
        spouse_of[founders[2 * i]] = founders[2 * i + 1]
        spouse_of[founders[2 * i + 1]] = founders[2 * i]

    parents_of: dict[str, tuple[str, str]] = {}
    family_of: dict[str, int] = {}
    children_of_couple: list[list[str]] = []
    counts = _spread_children(rng, founder_couples, gen1_total, 3, MAX_CHILDREN)
    cursor = 0
    for i, k in enumerate(counts):
        kids = gen1[cursor : cursor + k]
        cursor += k
        children_of_couple.append(kids)
        for kid in kids:
            parents_of[kid] = (founders[2 * i], founders[2 * i + 1])
            family_of[kid] = i

    # marry across families, greedily along a shuffled order
    order = [gen1[i] for i in rng.permutation(gen1_total)]
    married = 0
    for a_pos, a in enumerate(order):
        if married == gen1_couples:
            break
        if a in spouse_of:
            continue
        for b in order[a_pos + 1 :]:
            if b not in spouse_of and family_of[a] != family_of[b]:
                spouse_of[a] = b
                spouse_of[b] = a
                married += 1
                break

    gen1_pairs = []
    seen_pair = set()
    for person in gen1:
        partner = spouse_of.get(person)
        if partner and person not in seen_pair:
            gen1_pairs.append((person, partner))
            seen_pair.update((person, partner))

    counts2 = _spread_children(rng, len(gen1_pairs), gen2_total, 2, 3)
    cursor = 0
    for pair_idx, k in enumerate(counts2):
        kids = gen2[cursor : cursor + k]
        cursor += k
        children_of_couple.append(kids)
        for kid in kids:
            parents_of[kid] = gen1_pairs[pair_idx]
            family_of[kid] = founder_couples + pair_idx

    siblings_of: dict[str, list[str]] = {}
    for kids in children_of_couple:
        for kid in kids:
            siblings_of[kid] = [s for s in kids if s != kid]

    triples: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()

    def put(h: str, r: str, t: str) -> None:
        row = (h, r, t)
        if row not in seen:
            seen.add(row)
            triples.append(row)

    for person in founders + gen1:
        if person in spouse_of:
            put(person, "spouse", spouse_of[person])
    for kid, (pa, pb) in parents_of.items():
        put(pa, "parent", kid)
        put(pb, "parent", kid)
        put(kid, "child", pa)
        put(kid, "child", pb)
    for kid, sibs in siblings_of.items():
        for s in sibs:
            put(kid, "sibling", s)
    for kid in gen2:
        for parent in parents_of[kid]:
            for grand in parents_of[parent]:
                put(grand, "grandparent", kid)
                put(kid, "grandchild", grand)
            for uncle in siblings_of[parent]:
                put(uncle, "auntuncle", kid)
                put(kid, "nephewniece", uncle)
    for kid in gen2:
        for other in gen2:
            if other == kid or family_of[other] == family_of[kid]:
                continue
            related = any(
                u in parents_of[other] for p in parents_of[kid] for u in siblings_of[p]
            )
            if related:
                put(kid, "cousin", other)
    for person in gen1:
        partner = spouse_of.get(person)
        if partner:
            for p in parents_of[partner]:
                put(p, "inlaw", person)
                put(person, "inlaw", p)
            for s in siblings_of[partner]:
                put(s, "inlaw", person)
                put(person, "inlaw", s)

    return _split(rng, triples, valid_size, test_size)


def _split(
    rng, triples: list[tuple[str, str, str]], valid_size: int, test_size: int
) -> KnowledgeGraph:
    """Move eval triples out only while train still covers every name."""
    entity_uses: dict[str, int] = {}
    relation_uses: dict[str, int] = {}
    for h, r, t in triples:
        entity_uses[h] = entity_uses.get(h, 0) + 1
        entity_uses[t] = entity_uses.get(t, 0) + 1
        relation_uses[r] = relation_uses.get(r, 0) + 1
    wanted = valid_size + test_size
    chosen: list[int] = []
    taken = set()
    for idx in rng.permutation(len(triples)):
        if len(chosen) == wanted:
            break
        h, r, t = triples[idx]
        need_h = 2 if h != t else 3
        if entity_uses[h] >= need_h and entity_uses[t] >= 2 and relation_uses[r] >= 2:
            entity_uses[h] -= 1
            entity_uses[t] -= 1
            relation_uses[r] -= 1
            chosen.append(int(idx))
            taken.add(int(idx))
    if len(chosen) < wanted:
        raise ValueError(f"asked for {valid_size} valid and {test_size} test triples, but only "
                         f"{len(chosen)} of {len(triples)} can leave train while it covers "
                         "every name")
    train = [triples[i] for i in range(len(triples)) if i not in taken]
    valid = [triples[i] for i in chosen[:valid_size]]
    test = [triples[i] for i in chosen[valid_size:]]
    return build_graph(train, valid, test)
