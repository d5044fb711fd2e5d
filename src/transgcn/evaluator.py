"""Filtered link-prediction evaluation over frozen embeddings.

Every split triple produces two queries (head-side and tail-side).  All
entities are candidates; corruptions appearing anywhere in train, valid, or
test are removed, never the true triple itself.  Exact score ties resolve
to the pessimistic mid-rank: 1 + #higher + ceil(#tied / 2).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .autodiff import complex_product
from .kg import KnowledgeGraph, NeighborhoodIndex, Triple, known_triple_set
from .transform import Assumption

HITS_CUTOFFS = (1, 3, 10)


@dataclass
class RankingReport:
    """Filtered metrics plus per-query ranks aligned with ``triples``."""

    mrr: float
    hits1: float
    hits3: float
    hits10: float
    head_ranks: np.ndarray
    tail_ranks: np.ndarray
    triples: list[Triple] = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        return {"mrr": self.mrr, "hits1": self.hits1, "hits3": self.hits3,
                "hits10": self.hits10}


def rank_from_scores(true_score: float, other_scores: np.ndarray) -> int:
    """Pessimistic mid-rank of the true candidate among the survivors."""
    higher = int((other_scores > true_score).sum())
    tied = int((other_scores == true_score).sum())
    return 1 + higher + (tied + 1) // 2


def candidate_scores(
    entities: np.ndarray,
    relations: np.ndarray,
    triple: Triple,
    side: str,
    assumption: Assumption,
    norm: str,
) -> np.ndarray:
    """Scores of every entity substituted into one slot of the triple."""
    h, r, t = triple
    rel = relations[r]
    compose = complex_product if Assumption(assumption) is Assumption.ROTATION else np.add
    # the difference lives in one N×d buffer: every step after the first writes into it
    if side == "tail":
        diff = np.subtract(compose(entities[h], rel), entities)
    elif side == "head":
        diff = compose(entities, rel)
        diff -= entities[t]
    else:
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    if norm == "l1":
        return -np.abs(diff, out=diff).sum(axis=1)
    if norm == "l2":
        return -np.sqrt(np.square(diff, out=diff).sum(axis=1))
    raise ValueError(f"unknown norm {norm!r}")


def filtered_rank(
    entities: np.ndarray,
    relations: np.ndarray,
    triple: Triple,
    side: str,
    known,
    assumption: Assumption,
    norm: str,
) -> int:
    """Filtered rank of the true entity for one query."""
    scores = candidate_scores(entities, relations, triple, side, assumption, norm)
    h, r, t = triple
    true_id = t if side == "tail" else h
    keep = np.ones(len(scores), dtype=bool)
    for c in range(len(scores)):
        if c == true_id:
            continue
        cand = (h, r, c) if side == "tail" else (c, r, t)
        if cand in known:
            keep[c] = False
    keep[true_id] = False  # the true triple is never its own competitor
    return rank_from_scores(float(scores[true_id]), scores[keep])


class KnownFilter:
    """Known triples as two sorted int64 key tables, one per query side.

    With N entities and R relations, a known (h, r, t) has key
    (h·R + r)·N + t in the tail table and (r·N + t)·N + h in the head table
    (so N²·R must stay below 2**63).  A query's blocked keys are one
    contiguous slice of a table (CSR-style), found with two binary searches.
    ``known`` defaults to the triples of all three splits.
    """

    def __init__(self, kg: KnowledgeGraph, known=None):
        if known is None:
            known = known_triple_set(kg)
        self.n, self.r = kg.num_entities, kg.num_relations
        if self.n * self.n * self.r >= 2**63:
            raise ValueError(f"{self.n} entities x {self.r} relations overflow int64 keys")
        ids = np.fromiter(itertools.chain.from_iterable(known), dtype=np.int64,
                          count=3 * len(known)).reshape(-1, 3)
        h, r, t = ids.T
        self.tail_keys = np.sort((h * self.r + r) * self.n + t)
        self.head_keys = np.sort((r * self.n + t) * self.n + h)

    def blocked(self, triple: Triple, side: str) -> np.ndarray:
        """Ids c that give a known triple when put in the ``side`` slot of ``triple``."""
        h, r, t = triple
        if side == "tail":
            keys, base = self.tail_keys, (h * self.r + r) * self.n
        else:
            keys, base = self.head_keys, (r * self.n + t) * self.n
        lo, hi = np.searchsorted(keys, (base, base + self.n))
        return keys[lo:hi] - base


def evaluate(
    kg: KnowledgeGraph,
    split: str,
    entities: np.ndarray,
    relations: np.ndarray,
    assumption: Assumption,
    norm: str = "l1",
    threads: int = 1,
    known=None,
) -> RankingReport:
    """Rank every triple of a split on both sides and aggregate metrics.

    ``known`` defaults to the union of all three splits.  Results are
    independent of ``threads``: queries are chunked and merged positionally.
    """
    assumption = Assumption(assumption)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    triples = kg.split(split)
    if not triples:
        raise ValueError(f"cannot evaluate an empty {split} split")
    known_filter = KnownFilter(kg, known)

    def rank_query(args) -> int:
        triple, side = args
        scores = candidate_scores(entities, relations, triple, side, assumption, norm)
        true_id = triple.tail if side == "tail" else triple.head
        true_score = float(scores[true_id])
        # -inf neither beats nor ties a finite true score: these drop out of the counts
        scores[known_filter.blocked(triple, side)] = -np.inf
        scores[true_id] = -np.inf
        return rank_from_scores(true_score, scores)

    queries = [(t, "head") for t in triples] + [(t, "tail") for t in triples]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ranks = list(pool.map(rank_query, queries, chunksize=64))
    else:
        ranks = [rank_query(q) for q in queries]

    n = len(triples)
    head_ranks = np.asarray(ranks[:n], dtype=np.int64)
    tail_ranks = np.asarray(ranks[n:], dtype=np.int64)
    all_ranks = np.concatenate([head_ranks, tail_ranks]).astype(np.float64)
    hits = {k: float(np.mean(all_ranks <= k)) for k in HITS_CUTOFFS}
    return RankingReport(
        mrr=float(np.mean(1.0 / all_ranks)),
        hits1=hits[1],
        hits3=hits[3],
        hits10=hits[10],
        head_ranks=head_ranks,
        tail_ranks=tail_ranks,
        triples=list(triples),
    )


def degree_bucket_report(report: RankingReport, index: NeighborhoodIndex) -> list[dict]:
    """Aggregate filtered MRR by train degree of the predicted entity.

    Buckets have geometric edges 1, 2, 4, 8, ... plus a leading bucket for
    degree-0 entities; together they partition the queries.
    """
    ids = np.array(report.triples, dtype=np.int64).reshape(-1, 3)
    degrees = index.degree[np.concatenate([ids[:, 0], ids[:, 2]])]
    ranks = np.concatenate([report.head_ranks, report.tail_ranks])
    max_degree = int(degrees.max()) if degrees.size else 0
    edges = [0, 1]
    while edges[-1] <= max_degree:
        edges.append(edges[-1] * 2)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        bucket = ranks[(degrees >= lo) & (degrees < hi)]
        rows.append(
            {
                "min_degree": lo,
                "max_degree": hi,
                "queries": int(bucket.size),
                "mrr": float(np.mean(1.0 / bucket)) if bucket.size else 0.0,
            }
        )
    return rows

