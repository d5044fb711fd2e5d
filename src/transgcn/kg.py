"""Knowledge-graph datasets: TSV parsing, id vocabularies, neighborhood index.

A dataset directory holds three UTF-8 TSV files (train.txt, valid.txt,
test.txt), one ``head<TAB>relation<TAB>tail`` triple per line.  String names
are interned into integer ids shared across the splits, and each split is held
as one read-only (n, 3) int64 array of (head, relation, tail) id rows; all
downstream code works on these arrays.
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
                ids = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            except (TypeError, ValueError) as err:
                raise ValueError(f"{name} split is not a sequence of id triples: {err}") from None
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


@dataclass
class NeighborhoodIndex:
    """Train-split adjacency used by the encoder.

    The flat ``heads``/``rels``/``tails`` arrays mirror the train split in
    file order: edge k runs from ``heads[k]`` to ``tails[k]`` under relation
    ``rels[k]``.  ``by_tail``, ``by_head`` and ``by_rel`` are stable
    permutations of the edge ids sorted by that key; ``tail_offsets[i]`` and
    ``head_offsets[i]`` (length entities + 1) are where entity i's run starts
    in the by-tail and by-head orders.  ``degree[i]`` counts the edges that
    end at entity i plus those that start there (a self-loop counts twice).
    """

    degree: np.ndarray
    heads: np.ndarray = field(repr=False)
    rels: np.ndarray = field(repr=False)
    tails: np.ndarray = field(repr=False)
    by_tail: np.ndarray = field(repr=False)
    tail_offsets: np.ndarray = field(repr=False)
    by_head: np.ndarray = field(repr=False)
    head_offsets: np.ndarray = field(repr=False)
    by_rel: np.ndarray = field(repr=False)

    @property
    def num_entities(self) -> int:
        return len(self.degree)


def _sorted_by(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable permutation sorting ``key``, and each key's run offset (size + 1)."""
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=size), out=offsets[1:])
    return np.argsort(key, kind="stable"), offsets


def build_index(kg: KnowledgeGraph) -> NeighborhoodIndex:
    """Index train-split neighborhoods; valid/test edges never participate."""
    heads, rels, tails = np.ascontiguousarray(kg.train.T)
    by_tail, tail_offsets = _sorted_by(tails, kg.num_entities)
    by_head, head_offsets = _sorted_by(heads, kg.num_entities)
    return NeighborhoodIndex(
        degree=np.diff(tail_offsets) + np.diff(head_offsets),
        heads=heads, rels=rels, tails=tails,
        by_tail=by_tail, tail_offsets=tail_offsets,
        by_head=by_head, head_offsets=head_offsets,
        by_rel=np.argsort(rels, kind="stable"),
    )


def known_triple_set(kg: KnowledgeGraph) -> frozenset[tuple[int, int, int]]:
    """Constant-time membership test over train ∪ valid ∪ test id triples."""
    return frozenset(map(tuple, np.concatenate([kg.train, kg.valid, kg.test]).tolist()))
