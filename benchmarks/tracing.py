"""Spans around calls into the layers of ``transgcn``, from outside the package.

A :class:`Tracer` replaces module attributes (the names callers look up,
such as ``transgcn.trainer.sample_negatives`` or ``transgcn.autodiff.add``)
with timing wrappers while it is installed, and restores them on removal.
Spans are kept in memory as (name, start, end, parent) and written out once
the run ends.  Only single-threaded code may run while a tracer is
installed: the open-span stack is not shared between threads.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

AUTODIFF_OPS = (
    "gather_rows", "segment_sum", "complex_hadamard", "complex_conjugate", "add", "sub",
    "hadamard", "matmul", "relu", "complex_unit_normalize", "phase_embedding",
    "row_l1_norm", "row_l2_norm", "log_sigmoid", "scale", "sum_all",
)

# (module that looks the name up, attribute, span name)
TARGETS = (
    ("transgcn.kg", "load_dataset", "kg.load_dataset"),
    ("transgcn.kg", "build_index", "kg.build_index"),
    ("transgcn.trainer", "build_index", "kg.build_index"),
    ("transgcn.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("transgcn.encoder", "encode_arrays", "encoder.encode_arrays"),
    ("transgcn.trainer", "encode_arrays", "encoder.encode_arrays"),
    ("transgcn.encoder", "encode", "encoder.encode"),
    ("transgcn.trainer", "encode", "encoder.encode"),
    ("transgcn.encoder", "aggregate_messages", "encoder.aggregate_messages"),
    ("transgcn.encoder", "update_relations", "encoder.update_relations"),
    ("transgcn.trainer", "sample_negatives", "objective.sample_negatives"),
    ("transgcn.trainer", "score_triples", "objective.score_triples"),
    ("transgcn.trainer", "batch_margin_loss", "objective.loss"),
    ("transgcn.trainer", "batch_self_adv_weights", "objective.loss"),
    ("transgcn.trainer", "batch_self_adv_loss", "objective.loss"),
    ("transgcn.trainer", "backward", "autodiff.backward"),
    ("transgcn.trainer", "adam_step", "trainer.adam_step"),
    ("transgcn.trainer", "_clip_gradients", "trainer.clip"),
    ("transgcn.trainer", "train", "trainer.train"),
    ("transgcn.trainer", "evaluate", "evaluator.evaluate"),
    ("transgcn.evaluator", "evaluate", "evaluator.evaluate"),
    ("transgcn.evaluator", "candidate_scores", "evaluator.candidate_scores"),
    ("transgcn.evaluator", "known_triple_set", "evaluator.known_triple_set"),
) + tuple(("transgcn.autodiff", op, f"autodiff.{op}") for op in AUTODIFF_OPS)


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        clock = time.perf_counter
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def install(self) -> "Tracer":
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def mark(self) -> int:
        """Span count so far; spans recorded after a mark form one phase."""
        return len(self.names)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Totals over spans [lo, hi): per name the inclusive time, call count
        and self time, and per parent name the inclusive time of its children
        by child name."""
        hi = len(self.names) if hi is None else hi
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        under: dict[tuple[str, str], float] = defaultdict(float)
        for i in range(lo, hi):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            calls[name] += 1
            self_time[name] += dur
            p = self.parents[i]
            if p >= lo:
                self_time[self.names[p]] -= dur
                under[(self.names[p], name)] += dur
        return {"total": total, "calls": calls, "self": self_time, "under": under}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i]}) + "\n")
