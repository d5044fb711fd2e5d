#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of transgcn.

Usage, from the repository root:

    python3 benchmarks/run.py --workload kinship --seed 1 --seconds 35 --trace 0

Each run generates its inputs from ``--seed`` into a scratch directory under
``benchmarks/.work``, then repeats whole rounds of one user session until
``--seconds`` have passed.  A round is ranking cycles, one train() call (a
zero-layer pretrain phase, then a one-layer phase with validation), and as
many ranking cycles again.  A ranking cycle sets the program up (load the
TSVs, build the neighborhood index, load and encode the two checkpoints) and
ranks the test split once with each checkpoint.  A round that raises ends the
measuring; its steps or queries count as failed.  After the rounds it runs
the correctness checks of ``checks.py`` and prints one JSON line: end-to-end
metrics with ``--trace 0``; with ``--trace 1`` an untraced and a traced half
of the rounds, the per-layer metrics of the traced half, the tracing
overhead, and traced peak memory from a pass of its own.

``--smoke`` shrinks the mid-scale graph so that every workload and every
check run in seconds.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_SECONDS = 0.05  # a cycle sets up again until this long: a kinship set-up takes 15 ms
TRACED_SETUP_REPS = 3  # the traced run's separate set-ups: at least this many, and
TRACED_SETUP_SECONDS = 2.0  # at least this long
TRACED_CYCLES = 1  # ranking cycles on each side of train() in a traced run's rounds
ASSUMPTIONS = ("rotation", "translation")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One user session shape: its graph, training schedule and ranking load."""

    name: str
    train: dict  # TrainConfig fields; the seed comes from --seed
    cycles: int  # ranking cycles before and again after each train() call
    checked_queries: int  # test triples whose ranks are re-derived by brute force
    mrr_check: bool  # trained test MRR must clear a uniformly random ranking

    @property
    def pretrain_epochs(self) -> int:
        return self.train["pretrain_epochs"]

    @property
    def layer_epochs(self) -> int:
        return self.train["epochs"] - self.train["pretrain_epochs"]


WORKLOADS = {
    # the quick-start shape (make toy), shortened to 10 + 10 epochs
    "kinship": Workload(
        name="kinship",
        train=dict(assumption="rotation", layers=1, dim=32, gamma=6.0, lr=0.01,
                   sampling="self-adversarial", negatives=10, batch=128,
                   pretrain_epochs=10, epochs=20, eval_every=5),
        cycles=5, checked_queries=150, mrr_check=True),
    # batch and negatives sized so message passing dominates a step
    "midscale": Workload(
        name="midscale",
        train=dict(assumption="rotation", layers=1, dim=200, gamma=6.0, lr=0.01,
                   sampling="self-adversarial", negatives=2, batch=12500,
                   pretrain_epochs=1, epochs=2, eval_every=1),
        cycles=2, checked_queries=20, mrr_check=False),
}

END_TO_END = {
    "setup_s": "s",
    "pretrain_triples_per_s": "1/s",
    "train_triples_per_s": "1/s",
    "eval_queries_per_s.rotation": "1/s",
    "eval_queries_per_s.translation": "1/s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import transgcn from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "transgcn", "__init__.py")):
        sys.exit(f"benchmark: program source not found at {SRC}/transgcn")
    sys.path.insert(0, SRC)
    import transgcn  # noqa: F401  (fails loudly when the source is broken)


class EpochClock(logging.Handler):
    """Timestamps the per-epoch lines train() logs; costs one call per epoch."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.stamps: list[tuple[float, tuple]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.stamps.append((time.perf_counter(), record.args))


class Session:
    """Inputs, set-up state and round loop of one workload run."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, work: str):
        from transgcn import kg as kg_mod, trainer
        from transgcn.checkpoint import save_checkpoint

        import inputs

        self.workload, self.seed, self.work = workload, seed, work
        self.attempted = self.failed = 0  # training steps and ranking queries
        self.data_dir = os.path.join(work, "data")
        if workload.name == "kinship":
            splits = inputs.kinship_splits(seed)
        else:
            splits = inputs.midscale_splits(
                seed, inputs.MIDSCALE_SMOKE if smoke else inputs.MIDSCALE)
        inputs.write_splits(self.data_dir, *splits)
        self.config = trainer.TrainConfig(seed=seed, **workload.train)
        if smoke and workload.name != "kinship":
            self.config = self.config.replace(dim=32, batch=500)
        self.kg = kg = kg_mod.load_dataset(self.data_dir)
        self.ckpt_paths = {}
        for assumption in ASSUMPTIONS:
            cfg = trainer.TrainConfig(assumption=assumption, layers=1, dim=self.config.dim,
                                      epochs=0, seed=seed + 1)
            self.ckpt_paths[assumption] = os.path.join(work, f"{assumption}.ckpt")
            save_checkpoint(trainer.train(kg, cfg), self.ckpt_paths[assumption])
        self.clock = EpochClock()
        log = logging.getLogger("transgcn.trainer")
        log.setLevel(logging.INFO)
        log.propagate = False
        log.addHandler(self.clock)

    def setup(self) -> float:
        """The `transgcn eval` start-up for both checkpoints; returns seconds."""
        from transgcn import checkpoint, encoder, kg as kg_mod

        t0 = time.perf_counter()
        kg = kg_mod.load_dataset(self.data_dir)
        index = kg_mod.build_index(kg)
        encoded = {}
        for assumption, path in self.ckpt_paths.items():
            ckpt = checkpoint.load_checkpoint(path)
            if ckpt.entity_names != kg.entity_names or ckpt.relation_names != kg.relation_names:
                raise RuntimeError(f"{path} does not match the dataset vocabulary")
            encoded[assumption] = encoder.encode_arrays(ckpt.state, index)
        elapsed = time.perf_counter() - t0
        self.kg, self.index, self.encoded = kg, index, encoded
        return elapsed

    def op(self, count: int, fn, *args, **kwargs):
        """Call ``fn`` as ``count`` attempted operations, all failed if it raises."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += count
            raise

    def round(self, samples: dict[str, list[float]], cycles: int, setup: bool) -> None:
        """One session: ``cycles`` ranking cycles, train(), ``cycles`` again.

        Appends the throughput samples of the round to ``samples``: one per
        evaluate() call, one per set-up and one per training phase.  Ranking
        also comes first, so that in the first round it runs in a process
        that has not trained yet, as `transgcn eval` does; ranking on both
        sides of training spreads its samples over the whole round.
        """
        from transgcn import trainer

        wl = self.workload
        n = len(self.kg.train)
        for _ in range(cycles):
            self.cycle(samples, setup)
        self.clock.stamps.clear()
        t0 = time.perf_counter()
        self.trained = self.op(self.steps(), trainer.train, self.kg, self.config)
        stamps = [t for t, _ in self.clock.stamps]
        self.losses.extend(float(args[1]) for _, args in self.clock.stamps)
        if len(stamps) != self.config.epochs:
            raise RuntimeError(f"expected {self.config.epochs} epoch lines, got {len(stamps)}")
        p = wl.pretrain_epochs
        samples["pretrain_triples_per_s"].append(p * n / (stamps[p - 1] - t0))
        samples["train_triples_per_s"].append(
            wl.layer_epochs * n / (stamps[-1] - stamps[p - 1]))
        for _ in range(cycles):
            self.cycle(samples, setup)

    def cycle(self, samples: dict[str, list[float]], setup: bool) -> None:
        """Set up (unless ``setup`` is false; again until SETUP_SECONDS have
        passed), then rank the test split once with each checkpoint."""
        from transgcn import evaluator

        if setup:
            times: list[float] = []
            while sum(times) < SETUP_SECONDS:
                times.append(self.setup())
            samples["setup_s"].extend(times)
        queries = 2 * len(self.kg.test)
        for assumption in ASSUMPTIONS:
            entities, relations = self.encoded[assumption]
            t0 = time.perf_counter()
            self.reports[assumption] = self.op(
                queries, evaluator.evaluate, self.kg, "test", entities, relations,
                assumption, threads=1)
            samples[f"eval_queries_per_s.{assumption}"].append(
                queries / (time.perf_counter() - t0))

    def setups(self) -> list[float]:
        """Set up TRACED_SETUP_REPS times, and again until TRACED_SETUP_SECONDS."""
        times = [self.setup() for _ in range(TRACED_SETUP_REPS)]
        while sum(times) < TRACED_SETUP_SECONDS:
            times.append(self.setup())
        return times

    def measure(self, seconds: float, setup: bool = True, cycles: int | None = None) -> dict:
        """Run whole rounds for ``seconds``; returns each metric's summary().

        ``setup`` false skips the set-ups of the ranking cycles (the last
        set-up's state is ranked); ``cycles`` overrides the workload's
        ranking cycles on each side of train().
        """
        self.losses: list[float] = []
        self.reports: dict = {}
        samples: dict[str, list[float]] = collections.defaultdict(list)
        cycles = self.workload.cycles if cycles is None else cycles
        rounds = 0
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            self.round(samples, cycles, setup)
            rounds += 1
            took = time.perf_counter() - r0
            if time.perf_counter() - start + took > seconds:
                break
        self.rounds = rounds
        return {name: summary(name, values) for name, values in samples.items()}

    def steps(self) -> int:
        """Training steps of one train() call."""
        return self.config.epochs * math.ceil(len(self.kg.train) / self.config.batch)

    def run_checks(self) -> list[tuple[str, bool, str]]:
        """Every check as (label, ok, detail); a check that raises has failed."""
        import checks
        from transgcn import encoder, trainer

        kg, wl = self.kg, self.workload
        data = checks.Dataset(self.data_dir, kg.entity_names, kg.relation_names)

        def ranks(assumption, check, count):
            entities, relations = self.encoded[assumption]
            report = self.reports[assumption]
            return check(entities, relations, assumption, report.head_ranks,
                         report.tail_ranks, count)

        def encoded(state):
            return encoder.encode_arrays(state, self.index)

        assumption = self.config.assumption.value
        todo = [("loss finite", lambda: checks.check_losses_finite(self.losses)),
                ("checkpoint round trip",
                 lambda: checks.check_roundtrip(self.trained, self.work))]
        for a in ASSUMPTIONS:
            todo.append((f"brute-force ranks, {a}", lambda a=a: ranks(
                a, functools.partial(checks.check_ranks, data), wl.checked_queries)))
            todo.append((f"threads=2 ranks, {a}", lambda a=a: ranks(
                a, functools.partial(checks.check_threads, kg), min(20, wl.checked_queries))))
        todo.append(("encoder recomputed", lambda: checks.check_encoder(
            data, self.trained, *encoded(self.trained.state), sample=32, seed=self.seed)))
        todo.append(("margin grows", lambda: checks.check_margin_grows(
            data, encoded(trainer.train(kg, self.config.replace(epochs=0)).state),
            encoded(self.trained.state), assumption, seed=self.seed)))
        if wl.mrr_check:
            todo.append(("test MRR above random", lambda: checks.check_mrr_above_random(
                data, *encoded(self.trained.state), assumption)))
        results = []
        for label, check in todo:
            try:
                ok, detail = check()
            except Exception as exc:
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append((label, ok, detail))
        return results


def summary(name: str, values: list[float]) -> float:
    """The upper quartile of the ranking passes, the median of other samples.

    Every ranking pass of a run repeats the same work on the same arrays, so
    a slow pass measures the host's other load, not the program.  At mid
    scale that load came in slow spells of 30 to 60 s; over ten runs the
    quartile spread of the median of each run's passes reached 30% (see
    README.md).  The upper quartile stays put while a spell covers up to
    three quarters of the passes, and still rests on more than the single
    fastest one.
    """
    if name.startswith("eval_queries_per_s.") and len(values) > 1:
        return statistics.quantiles(values, n=4)[2]
    return statistics.median(values)


class _OneStep(Exception):
    pass


def first_step(kg, config) -> None:
    """Run ``train(kg, config)`` up to its first Adam update, validation off.

    By then the step's forward and backward passes are done.
    """
    from transgcn import trainer

    def stop(*args, **kwargs):
        raise _OneStep

    adam_step = trainer.adam_step
    trainer.adam_step = stop
    try:
        trainer.train(dataclasses.replace(kg, valid=[]), config)
    except _OneStep:
        pass
    finally:
        trainer.adam_step = adam_step


def one_step_peak(kg, config) -> int:
    """tracemalloc peak bytes of the first training step of ``train(kg, config)``."""
    tracemalloc.start()
    try:
        first_step(kg, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peaks(session: Session) -> dict:
    """tracemalloc peaks of one one-layer training step and of one ranking pass."""
    from transgcn import evaluator

    step_peak = one_step_peak(session.kg, session.config.replace(pretrain_epochs=0, epochs=1))
    entities, relations = session.encoded["rotation"]
    tracemalloc.start()
    try:
        evaluator.evaluate(session.kg, "test", entities, relations, "rotation")
        eval_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"trainer.step_traced_peak_mb": step_peak / 2**20,
            "evaluator.traced_peak_mb": eval_peak / 2**20}


def layer_metrics(tracer, setup_span: tuple[int, int], round_span: tuple[int, int],
                  setup_reps: int, rounds: int) -> dict:
    """Per-layer values for one set-up plus one round of the traced pass."""
    from tracing import AUTODIFF_OPS

    s = tracer.summary(*setup_span)
    r = tracer.summary(*round_span)

    def per(kind: str, name: str) -> float:
        return s[kind].get(name, 0) / setup_reps + r[kind].get(name, 0) / rounds

    def seconds(name):
        return per("total", name)

    def under(parent, child):
        return (s["under"].get((parent, child), 0.0) / setup_reps
                + r["under"].get((parent, child), 0.0) / rounds)

    out = {}
    for name in ("kg.load_dataset", "kg.build_index", "checkpoint.load_checkpoint",
                 "encoder.encode_arrays", "objective.sample_negatives",
                 "objective.score_triples", "objective.loss", "encoder.encode",
                 "encoder.aggregate_messages", "encoder.update_relations",
                 "autodiff.backward", "trainer.adam_step", "trainer.clip",
                 "evaluator.evaluate", "evaluator.candidate_scores",
                 "evaluator.known_triple_set"):
        out[f"{name}_s"] = seconds(name)
    for name in ("objective.sample_negatives", "encoder.encode",
                 "evaluator.candidate_scores"):
        out[f"{name}.calls"] = per("calls", name)
    for op in AUTODIFF_OPS:
        out[f"autodiff.{op}_s"] = seconds(f"autodiff.{op}")
        out[f"autodiff.{op}.calls"] = per("calls", f"autodiff.{op}")
    out["trainer.steps"] = per("calls", "trainer.clip")
    out["trainer.glue_s"] = per("self", "trainer.train")
    out["trainer.validation_s"] = (under("trainer.train", "encoder.encode_arrays")
                                   + under("trainer.train", "evaluator.evaluate"))
    out["evaluator.filter_rank_s"] = per("self", "evaluator.evaluate")
    for layer in ("kg", "checkpoint", "objective", "encoder", "autodiff", "trainer",
                  "evaluator"):
        names = {n for n in (*s["self"], *r["self"]) if n.split(".")[0] == layer}
        out[f"self_s.{layer}"] = sum(per("self", n) for n in names)
    return out


def per_layer_units(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("trace_overhead."):
        return "%"
    if name.endswith(".calls") or name == "trainer.steps":
        return "count"
    return "s"


def end_to_end(session: Session, seconds: float) -> dict:
    metrics = session.measure(seconds)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(session: Session, seconds: float, spans_path: str) -> dict:
    """An untraced and a traced half of ``seconds``; per-layer metrics of the traced one."""
    from tracing import Tracer

    # Warm-up, discarded: the first training step of a process pays one-off
    # costs, so the untraced half's single mid-scale pretrain epoch ran about
    # 30% slower than the traced half's and the overhead read -30%.
    first_step(session.kg, session.config.replace(pretrain_epochs=0, epochs=1))
    plain = session.measure(seconds / 2, cycles=TRACED_CYCLES)
    tracer = Tracer()
    with tracer:
        a = tracer.mark()
        traced_setups = session.setups()
        b = tracer.mark()
        traced = session.measure(seconds / 2, setup=False, cycles=TRACED_CYCLES)
        c = tracer.mark()
    traced["setup_s"] = statistics.median(traced_setups)
    metrics = layer_metrics(tracer, (a, b), (b, c), len(traced_setups), session.rounds)
    for name in plain:
        # extra wall time of the traced pass, in percent of the untraced one
        ratio = traced[name] / plain[name] if name == "setup_s" \
            else plain[name] / traced[name]
        metrics[f"trace_overhead.{name}"] = 100.0 * (ratio - 1.0)
    metrics.update(traced_peaks(session))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    return metrics


def run(args) -> dict:
    import checks  # noqa: F401  (import errors surface before any measuring)

    workload = WORKLOADS[args.workload]
    work = os.path.join(HERE, ".work", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        session = Session(workload, args.seed, args.smoke, work)
        try:
            if args.trace:
                metrics = per_layer(session, args.seconds, os.path.join(
                    HERE, "results", f"spans-{workload.name}-{args.seed}.jsonl"))
            else:
                metrics = end_to_end(session, args.seconds)
            error = False
        except Exception:
            # a step or query that raised is counted in session.failed; the run
            # stops there, still checks what it has and reports no metrics
            traceback.print_exc(file=sys.stdout)
            metrics, error = {}, True
        results = session.run_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for _, ok, _ in results if not ok)
    for label, ok, detail in results:
        print(f"check {'PASS' if ok else 'FAIL'}: {label}: {detail}")
    units = {name: END_TO_END.get(name) or per_layer_units(name) for name in metrics}
    return {
        "correct": not error and failed == 0,
        "attempted": session.attempted + len(results),
        "failed": session.failed + failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the mid-scale graph for a quick check of every path")
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, HERE)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
