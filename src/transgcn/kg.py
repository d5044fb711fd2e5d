"""Knowledge-graph datasets: TSV parsing, id vocabularies, neighborhood index.

A dataset directory holds three UTF-8 TSV files (train.txt, valid.txt,
test.txt), one ``head<TAB>relation<TAB>tail`` triple per line.  String names
are interned into integer ids shared across the splits; all downstream code
works on ids only.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParseError

logger = logging.getLogger("transgcn.kg")

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


@dataclass
class KnowledgeGraph:
    """Id-level triples for the three splits plus the name vocabularies.

    Vocabularies are the union over all splits; ids are assigned by first
    appearance scanning train, then valid, then test (and head, relation,
    tail within a line).  Instances are treated as immutable after
    construction.
    """

    entity_names: list[str]
    relation_names: list[str]
    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def split(self, name: str) -> list[Triple]:
        if name not in ("train", "valid", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def validate(self) -> None:
        """Check vocabulary and id invariants, raising ValueError on breach."""
        if len(set(self.entity_names)) != len(self.entity_names):
            raise ValueError("duplicate entity names")
        if len(set(self.relation_names)) != len(self.relation_names):
            raise ValueError("duplicate relation names")
        ne, nr = self.num_entities, self.num_relations
        for split in (self.train, self.valid, self.test):
            for t in split:
                if not (0 <= t.head < ne and 0 <= t.tail < ne and 0 <= t.relation < nr):
                    raise ValueError(f"triple {t} references an id outside the vocabulary")


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

    splits: list[list[Triple]] = []
    for split_name, rows in (("train", train_rows), ("valid", valid_rows), ("test", test_rows)):
        triples: list[Triple] = []
        for h, r, t in rows:
            triples.append(
                Triple(intern(entity_ids, h), intern(relation_ids, r), intern(entity_ids, t))
            )
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
            for t in triples:
                fh.write(
                    f"{kg.entity_names[t.head]}\t{kg.relation_names[t.relation]}\t{kg.entity_names[t.tail]}\n"
                )


@dataclass
class NeighborhoodIndex:
    """Train-split adjacency used by the encoder.

    The flat ``heads``/``rels``/``tails`` arrays mirror the train split in
    file order for vectorized message passing: edge k runs from
    ``heads[k]`` to ``tails[k]`` under relation ``rels[k]``.  ``degree[i]``
    counts the edges that end at entity i plus those that start there (a
    self-loop counts twice).
    """

    degree: np.ndarray
    heads: np.ndarray = field(repr=False)
    rels: np.ndarray = field(repr=False)
    tails: np.ndarray = field(repr=False)

    @property
    def num_entities(self) -> int:
        return len(self.degree)


def build_index(kg: KnowledgeGraph) -> NeighborhoodIndex:
    """Index train-split neighborhoods; valid/test edges never participate."""
    n = len(kg.train)
    heads = np.fromiter((t.head for t in kg.train), dtype=np.int64, count=n)
    rels = np.fromiter((t.relation for t in kg.train), dtype=np.int64, count=n)
    tails = np.fromiter((t.tail for t in kg.train), dtype=np.int64, count=n)
    degree = (np.bincount(heads, minlength=kg.num_entities)
              + np.bincount(tails, minlength=kg.num_entities))
    return NeighborhoodIndex(degree=degree, heads=heads, rels=rels, tails=tails)


def known_triple_set(kg: KnowledgeGraph) -> frozenset[tuple[int, int, int]]:
    """Constant-time membership test over train ∪ valid ∪ test id triples."""
    return frozenset((t.head, t.relation, t.tail) for t in (*kg.train, *kg.valid, *kg.test))
