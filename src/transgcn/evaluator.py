"""Filtered link-prediction evaluation over frozen embeddings.

Every split triple produces two queries (head-side and tail-side).  All
entities are candidates; corruptions appearing anywhere in train, valid, or
test are removed, never the true triple itself.  Exact score ties resolve
to the pessimistic mid-rank: 1 + #higher + ceil(#tied / 2).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .autodiff import complex_product
from .kg import KnowledgeGraph, NeighborhoodIndex
from .kg import known_triple_set  # unused here; benchmarks/tracing.py wraps it by this name
from .transform import Assumption

HITS_CUTOFFS = (1, 3, 10)
RANK_BLOCK = 2**15  # numbers in one query block x candidate tile x d difference


@dataclass
class RankingReport:
    """Filtered metrics plus per-query ranks: ``triples`` is the ranked split's
    read-only (n, 3) id array, and its row i has ranks head_ranks[i] and tail_ranks[i]."""

    mrr: float
    hits1: float
    hits3: float
    hits10: float
    head_ranks: np.ndarray
    tail_ranks: np.ndarray
    triples: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {"mrr": self.mrr, "hits1": self.hits1, "hits3": self.hits3,
                "hits10": self.hits10}


def rank_from_scores(true_score: float | np.ndarray, other_scores: np.ndarray):
    """Pessimistic mid-rank of the true candidate among the survivors.

    A scalar and a row give one rank; m true scores and an m×n array give
    m ranks, one per row.
    """
    true = np.asarray(true_score)[..., None]
    higher = (other_scores > true).sum(axis=-1)
    tied = (other_scores == true).sum(axis=-1)
    return 1 + higher + (tied + 1) // 2


def block_shape(n: int, d: int) -> tuple[int, int]:
    """(tile, per_block): candidate rows per tile and queries per block, so
    that one per_block × tile × d difference holds about ``RANK_BLOCK`` numbers."""
    tile = min(n, max(1, RANK_BLOCK // d))
    return tile, max(1, RANK_BLOCK // (tile * d))


def candidate_scores(
    entities: np.ndarray,
    relations: np.ndarray,
    r: int,
    fixed,
    side: str,
    assumption: Assumption,
    norm: str,
) -> np.ndarray:
    """Scores (m, N) of every entity put in the ``side`` slot of m queries.

    The queries are (fixed[i], r, ?) on the tail side and (?, r, fixed[i])
    on the head side.  Candidates are taken in tiles and queries in blocks
    (``block_shape``), so one block × tile × d difference stays in cache; on
    the head side each tile is composed with r once for all m queries.  Each
    score is the same float operations as −‖compose(e_h, r) − e_t‖ of one
    triple.
    """
    compose = complex_product if Assumption(assumption) is Assumption.ROTATION else np.add
    if norm not in ("l1", "l2"):
        raise ValueError(f"unknown norm {norm!r}")
    rel = relations[r]
    if side == "tail":
        rows = compose(entities[fixed], rel)[:, None, :]
    elif side == "head":
        rows = entities[fixed][:, None, :]
    else:
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    n, d = entities.shape
    tile, per_block = block_shape(n, d)
    scores = np.empty((len(rows), n), dtype=np.result_type(entities, relations))
    # one difference buffer per call: each block writes a contiguous prefix of it
    buffer = np.empty(min(len(rows), per_block) * min(n, tile) * d, dtype=scores.dtype)
    for lo in range(0, n, tile):
        cands = entities[lo:lo + tile] if side == "tail" else compose(entities[lo:lo + tile], rel)
        for q in range(0, len(rows), per_block):
            block = rows[q:q + per_block]
            diff = buffer[:len(block) * len(cands) * d].reshape(len(block), len(cands), d)
            np.subtract(*((block, cands) if side == "tail" else (cands, block)), out=diff)
            (np.abs if norm == "l1" else np.square)(diff, out=diff)
            diff.sum(axis=2, out=scores[q:q + per_block, lo:lo + tile])
    if norm == "l2":
        np.sqrt(scores, out=scores)
    return np.negative(scores, out=scores)


class KnownFilter:
    """Known triples as two sorted int64 key tables, one per query side.

    With N entities and R relations, a known (h, r, t) has key
    (h·R + r)·N + t in the tail table and (r·N + t)·N + h in the head table
    (so N²·R must stay below 2**63).  A query's blocked keys are one
    contiguous slice of a table (CSR-style), found with two binary searches.
    ``known`` (any collection of (h, r, t) id triples) defaults to the rows
    of all three splits.
    """

    def __init__(self, kg: KnowledgeGraph, known=None):
        self.n, self.r = kg.num_entities, kg.num_relations
        if self.n * self.n * self.r >= 2**63:
            raise ValueError(f"{self.n} entities x {self.r} relations overflow int64 keys")
        if known is None:
            ids = np.concatenate([kg.train, kg.valid, kg.test])
        else:
            ids = np.array(list(known), dtype=np.int64).reshape(-1, 3)
        h, r, t = ids.T
        self.tail_keys = np.sort((h * self.r + r) * self.n + t)
        self.head_keys = np.sort((r * self.n + t) * self.n + h)

    def lookup(self, fixed, r, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Blocked (row, id) pairs of the queries (fixed[i], r, ?) or (?, r, fixed[i]).

        Id ``ids[k]`` gives a known triple in the ``side`` slot of query
        ``rows[k]``; rows come in ascending order.  An id repeats within a
        row when its triple is listed twice (a duplicated train row, or a
        triple in two splits); ranks do not change, since a blocked id is
        set to -inf either way.
        """
        fixed = np.asarray(fixed, dtype=np.int64)
        if side == "tail":
            keys, base = self.tail_keys, (fixed * self.r + r) * self.n
        else:
            keys, base = self.head_keys, (r * self.n + fixed) * self.n
        lo = np.searchsorted(keys, base)
        counts = np.searchsorted(keys, base + self.n) - lo
        rows = np.repeat(np.arange(len(base)), counts)
        # position of each blocked key: its row's slice start plus its offset in the slice
        at = np.arange(len(rows)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        return rows, keys[at] - base[rows]


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

    ``known`` defaults to the union of all three splits.  Queries are sorted
    stably by (side, relation) and cut into runs of at most max(d, block)
    queries of one relation; each run is scored by one ``candidate_scores``
    call, then filtered and ranked as arrays.  Results are independent of
    ``threads``: the pool maps runs and ranks are written back by position.
    """
    assumption = Assumption(assumption)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    ids = kg.split(split)
    if not len(ids):
        raise ValueError(f"cannot evaluate an empty {split} split")
    known_filter = KnownFilter(kg, known)
    n, d = entities.shape
    # a call's score rows take no more memory than the entity table or one block
    per_call = max(d, block_shape(n, d)[1])
    order = np.argsort(ids[:, 1], kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(ids[order, 1])) + 1)
    tasks = [(side, group[lo:lo + per_call]) for side in ("head", "tail")
             for group in groups for lo in range(0, len(group), per_call)]

    def rank_task(task) -> np.ndarray:
        side, queries = task
        r = ids[queries[0], 1]
        fixed, true_ids = ids[queries, 0], ids[queries, 2]
        if side == "head":
            fixed, true_ids = true_ids, fixed
        scores = candidate_scores(entities, relations, r, fixed, side, assumption, norm)
        rows = np.arange(len(queries))
        true_scores = scores[rows, true_ids]
        # -inf neither beats nor ties a finite true score: these drop out of the counts
        scores[known_filter.lookup(fixed, r, side)] = -np.inf
        scores[rows, true_ids] = -np.inf
        return rank_from_scores(true_scores, scores)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(rank_task, tasks))
    else:
        results = [rank_task(task) for task in tasks]
    head_ranks = np.empty(len(ids), dtype=np.int64)
    tail_ranks = np.empty(len(ids), dtype=np.int64)
    for (side, queries), ranks in zip(tasks, results):
        (head_ranks if side == "head" else tail_ranks)[queries] = ranks
    all_ranks = np.concatenate([head_ranks, tail_ranks]).astype(np.float64)
    hits = {k: float(np.mean(all_ranks <= k)) for k in HITS_CUTOFFS}
    return RankingReport(
        mrr=float(np.mean(1.0 / all_ranks)),
        hits1=hits[1],
        hits3=hits[3],
        hits10=hits[10],
        head_ranks=head_ranks,
        tail_ranks=tail_ranks,
        triples=ids,
    )


def degree_bucket_report(report: RankingReport, index: NeighborhoodIndex) -> list[dict]:
    """Aggregate filtered MRR by train degree of the predicted entity.

    Buckets have geometric edges 1, 2, 4, 8, ... plus a leading bucket for
    degree-0 entities; together they partition the queries.
    """
    degrees = index.degree[np.concatenate([report.triples[:, 0], report.triples[:, 2]])]
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

