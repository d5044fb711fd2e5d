"""Knowledge-graph datasets: TSV parsing, id vocabularies, neighborhood index.

A dataset directory holds three UTF-8 TSV files (train.txt, valid.txt,
test.txt), one ``head<TAB>relation<TAB>tail`` triple per line.  String names
are interned into integer ids shared across the splits, and each split is held
as one read-only (n, 3) int64 array of (head, relation, tail) id rows; all
downstream code works on these arrays.  The neighborhood index walks each
train edge both ways, the reverse under inverse relation id R + r; its walks
keep, besides their chunk plans, only the id arrays that message passing
gathers.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ParseError

logger = logging.getLogger("transgcn.kg")

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


@dataclass(eq=False)
class KnowledgeGraph:
    """Id-level triples for the three splits plus the name vocabularies.

    Vocabularies are the union over all splits; ids are assigned by first
    appearance scanning train, then valid, then test (and head, relation,
    tail within a line).  Each split is a read-only, C-contiguous (n, 3)
    int64 array of (head, relation, tail) rows, so it cannot change after
    construction.  Any sequence of id triples may be passed (a list, ``[]``,
    an array slice): a row that is not three in-vocabulary ids raises a
    ValueError naming the split, and a caller's array is held as a
    read-only view or copy, never made read-only itself.
    """

    entity_names: list[str]
    relation_names: list[str]
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.entity_names)) != len(self.entity_names):
            raise ValueError("duplicate entity names")
        if len(set(self.relation_names)) != len(self.relation_names):
            raise ValueError("duplicate relation names")
        bounds = np.array([self.num_entities, self.num_relations, self.num_entities])
        for name in ("train", "valid", "test"):
            try:
                ids = np.asarray(getattr(self, name))
                if ids.size and ids.dtype.kind not in "iu":  # an empty list reads as float64
                    raise TypeError(f"ids must be integers, got dtype {ids.dtype}")
            except (TypeError, ValueError) as err:
                raise ValueError(f"{name} split is not a sequence of id triples: {err}") from None
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.shape == (0,):
                ids = ids.reshape(0, 3)
            if ids.ndim != 2 or ids.shape[1] != 3:
                raise ValueError(f"{name} split rows must be id triples, got shape {ids.shape}")
            outside = ((ids < 0) | (ids >= bounds)).any(axis=1)
            if outside.any():
                raise ValueError(f"{name} split triple {tuple(ids[outside][0].tolist())} "
                                 "references an id outside the vocabulary")
            ids = ids.view()
            ids.flags.writeable = False
            setattr(self, name, ids)

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def split(self, name: str) -> np.ndarray:
        if name not in ("train", "valid", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


def read_triples_tsv(path: str | os.PathLike) -> list[tuple[str, str, str]]:
    """Parse one TSV split file into (head, relation, tail) name rows.

    File order is preserved, blank lines are skipped, and a trailing ``\\r``
    is tolerated.  Raises ParseError naming the 1-based line number on a
    malformed line, FileNotFoundError if the path is missing.
    """
    rows: list[tuple[str, str, str]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(parts):
                raise ParseError(
                    f"{path}: line {lineno}: expected head<TAB>relation<TAB>tail, got {line!r}"
                )
            rows.append((parts[0], parts[1], parts[2]))
    return rows


def build_graph(
    train_rows: Iterable[tuple[str, str, str]],
    valid_rows: Iterable[tuple[str, str, str]],
    test_rows: Iterable[tuple[str, str, str]],
) -> KnowledgeGraph:
    """Assemble a KnowledgeGraph from name rows, interning ids across splits.

    Duplicate rows are preserved (they re-weight their triple during
    training); a count is logged per split when any are present.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}

    def intern(table: dict[str, int], name: str) -> int:
        if name not in table:
            table[name] = len(table)
        return table[name]

    splits: list[list[tuple[int, int, int]]] = []
    for split_name, rows in (("train", train_rows), ("valid", valid_rows), ("test", test_rows)):
        triples = [(intern(entity_ids, h), intern(relation_ids, r), intern(entity_ids, t))
                   for h, r, t in rows]
        dup_count = len(triples) - len(set(triples))
        if dup_count:
            logger.warning("%s split contains %d duplicate triples (preserved)", split_name, dup_count)
        splits.append(triples)

    return KnowledgeGraph(
        entity_names=list(entity_ids),
        relation_names=list(relation_ids),
        train=splits[0],
        valid=splits[1],
        test=splits[2],
    )


def load_dataset(directory: str | os.PathLike) -> KnowledgeGraph:
    """Load train.txt/valid.txt/test.txt from a directory into one graph."""
    paths = [os.path.join(directory, name) for name in SPLIT_FILES]
    for p in paths:
        if not os.path.isfile(p):
            raise FileNotFoundError(f"dataset file not found: {p}")
    train, valid, test = (read_triples_tsv(p) for p in paths)
    return build_graph(train, valid, test)


def write_dataset(kg: KnowledgeGraph, directory: str | os.PathLike) -> None:
    """Serialize a graph back to the three TSV files using stored names."""
    os.makedirs(directory, exist_ok=True)
    for name, triples in (("train.txt", kg.train), ("valid.txt", kg.valid), ("test.txt", kg.test)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            for h, r, t in triples.tolist():
                fh.write(f"{kg.entity_names[h]}\t{kg.relation_names[r]}\t{kg.entity_names[t]}\n")


CHUNK = 256  # edges or triples per chunk of message passing and scoring; read when used


class EdgeWalk:
    """Edges sorted stably by ``key``, cut every ``chunk`` (CHUNK when made) edges.

    ``ids`` holds, in walk order, only the id arrays that a pass over the
    walk gathers.  Chunk c's runs of one key start at the chunk-local
    offsets ``starts[bounds[c]:bounds[c + 1]]``; the same slice of ``keys``
    holds each run's key, the output row that the run sums into.
    """

    def __init__(self, key: np.ndarray, *ids: np.ndarray):
        self.chunk = chunk = CHUNK
        order = np.argsort(key, kind="stable")
        self.ids = [a[order] for a in ids]
        key = key[order]
        first = np.diff(key, prepend=-1) != 0
        first[::chunk] = True  # every chunk starts a run
        starts = np.flatnonzero(first)
        self.starts, self.keys = starts % chunk, key[starts]
        self.bounds = np.searchsorted(starts, np.arange(0, key.size + chunk, chunk))

    def chunks(self):
        """(each id array's slice, run starts, run keys) of each chunk, in walk order."""
        bounds = self.bounds.tolist()
        for c in range(len(bounds) - 1):
            lo, runs = c * self.chunk, slice(bounds[c], bounds[c + 1])
            yield [a[lo:lo + self.chunk] for a in self.ids], self.starts[runs], self.keys[runs]


@dataclass
class NeighborhoodIndex:
    """Train-split adjacency used by the encoder.

    Each train edge h -r-> t is walked in both directions, as h -r-> t and
    as t -(R + r)-> h, where ``num_relations`` is R and id R + r names the
    inverse of r.  ``by_dst`` holds the sources and relation ids of these 2E
    directed edges sorted by destination (forward edges before inverse ones,
    each in file order), ``by_rel`` the heads and tails of the E train edges
    sorted by relation; the keys, destination or relation, are read off each
    chunk's runs.  ``degree[i]`` counts the directed edges that end at entity
    i (a self-loop counts twice).
    """

    degree: np.ndarray
    num_relations: int
    by_dst: EdgeWalk = field(repr=False)
    by_rel: EdgeWalk = field(repr=False)

    @property
    def num_entities(self) -> int:
        return len(self.degree)


def build_index(kg: KnowledgeGraph) -> NeighborhoodIndex:
    """Index train-split neighborhoods; valid/test edges never participate."""
    heads, rels, tails = np.ascontiguousarray(kg.train.T)
    src, dst = np.concatenate([heads, tails]), np.concatenate([tails, heads])
    return NeighborhoodIndex(
        degree=np.bincount(dst, minlength=kg.num_entities),
        num_relations=kg.num_relations,
        by_dst=EdgeWalk(dst, src, np.concatenate([rels, rels + kg.num_relations])),
        by_rel=EdgeWalk(rels, heads, tails),
    )


def known_triple_set(kg: KnowledgeGraph) -> frozenset[tuple[int, int, int]]:
    """Constant-time membership test over train ∪ valid ∪ test id triples."""
    return frozenset(map(tuple, np.concatenate([kg.train, kg.valid, kg.test]).tolist()))
