#!/usr/bin/env python3
"""Reference figures quoted in README.md; not part of the gated benchmark.

Usage, from the repository root (about three minutes on 2 cores):

    python3 benchmarks/reference.py [--seed 0]

Prints the BLAS library and its thread count, ranking throughput with
threads=1 and threads=2, CPU time beside wall time for training and
ranking, kinship per-epoch times for four model shapes, and the peak
memory of one training step extrapolated to a FB15k-237-shaped graph.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FB15K237 = {"entities": 14_541, "edges": 272_115, "dim": 500}
# kinship epoch times (s) measured before this benchmark existed, see ROADMAP.md
KINSHIP_BASELINE = {("translation", 0): 0.18, ("translation", 1): 0.26,
                    ("rotation", 1): 0.33, ("rotation", 2): 0.42}


def blas_info() -> str:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    threads = "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return f"{blas['name']} {blas['version']}, {threads} threads"


def timed(fn):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - w0, time.process_time() - c0


def ranking(session, label: str) -> None:
    from transgcn import evaluator

    kg = session.kg
    passes = max(1, 4000 // (2 * len(kg.test)))  # at least about 4,000 queries

    def rank_all(assumption, threads):
        entities, relations = session.encoded[assumption]
        for _ in range(passes):
            evaluator.evaluate(kg, "test", entities, relations, assumption, threads=threads)

    for assumption in ("rotation", "translation"):
        for threads in (1, 2):
            _, wall, cpu = timed(lambda: rank_all(assumption, threads))
            queries = passes * 2 * len(kg.test)
            print(f"{label} ranking {assumption:11s} threads={threads}: "
                  f"{queries / wall:8.1f} queries/s over {queries}, "
                  f"wall {wall:.2f} s, cpu {cpu:.2f} s")


def training(session, label: str) -> None:
    from transgcn import trainer

    _, wall, cpu = timed(lambda: trainer.train(session.kg, session.config))
    print(f"{label} train() {session.config.epochs} epochs: wall {wall:.2f} s, cpu {cpu:.2f} s")


def kinship_epochs(session) -> None:
    from transgcn import trainer

    for (assumption, layers), before in KINSHIP_BASELINE.items():
        config = trainer.TrainConfig(assumption=assumption, layers=layers, dim=32, epochs=6,
                                     eval_every=100, seed=0)
        session.clock.stamps.clear()
        t0 = time.perf_counter()
        trainer.train(dataclasses.replace(session.kg, valid=[]), config)
        stamps = [t0] + [t for t, _ in session.clock.stamps]
        epoch = statistics.median(b - a for a, b in zip(stamps, stamps[1:]))
        print(f"kinship epoch {assumption:11s} {layers} layer(s): {epoch:.3f} s "
              f"(baseline {before:.2f} s)")


def memory_estimate(seed: int) -> None:
    """Peak of one rotation step at two edge counts, extrapolated linearly."""
    import inputs
    import run
    from transgcn import kg as kg_mod, trainer

    base, dim = inputs.MIDSCALE, 200
    points = []
    work = os.path.join(HERE, ".work", f"reference-{os.getpid()}")
    try:
        for edges in (base.train // 2, base.train):
            shape = dataclasses.replace(base, train=edges)
            inputs.write_splits(work, *inputs.midscale_splits(seed, shape))
            kg = kg_mod.load_dataset(work)
            config = trainer.TrainConfig(assumption="rotation", layers=1, dim=dim,
                                         negatives=2, batch=64, epochs=1, seed=seed)
            points.append((edges, run.one_step_peak(kg, config)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (e0, p0), (e1, p1) = points
    per_edge_dim = (p1 - p0) / (e1 - e0) / dim
    fixed = p0 - per_edge_dim * e0 * dim  # node-sized part, scales with entities x d
    scale = FB15K237["entities"] * FB15K237["dim"] / (base.entities * dim)
    estimate = per_edge_dim * FB15K237["edges"] * FB15K237["dim"] + fixed * scale
    print(f"one rotation step, batch 64: {p0 / 2**20:.0f} MB at {e0} edges, "
          f"{p1 / 2**20:.0f} MB at {e1} edges (d={dim})")
    print(f"  {per_edge_dim:.1f} bytes per edge x d = {per_edge_dim / 8:.1f} float64 "
          f"edge-sized tensors")
    print(f"  FB15k-237 shape ({FB15K237['entities']} entities, {FB15K237['edges']} edges, "
          f"d={FB15K237['dim']}): about {estimate / 2**30:.1f} GiB per rotation layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    import run

    run.import_program()
    print(f"BLAS: {blas_info()}; {os.cpu_count()} CPUs")
    for name in ("kinship", "midscale"):
        work = os.path.join(HERE, ".work", f"reference-{name}-{os.getpid()}")
        try:
            session = run.Session(run.WORKLOADS[name], args.seed, False, work)
            session.setup()
            ranking(session, name)
            training(session, name)
            if name == "kinship":
                kinship_epochs(session)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    memory_estimate(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
