"""Command-line surface: train, eval, predict, inspect, sweep, gen-toy.

Exit codes: 0 success, 2 for configuration/dataset/vocabulary problems, for
files that cannot be read or written, and for training runs estimated to need
more memory than is available, 3 when training aborts on non-finite numbers.
TRANSGCN_LOG={error|info|debug} sets verbosity (default info); logs go to
stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import encode_arrays, materialize_relations
from .errors import (
    CheckpointError,
    ConfigError,
    MemoryBudgetError,
    NumericError,
    ParseError,
    ShapeError,
)
from .evaluator import KnownFilter, candidate_scores, degree_bucket_report, evaluate
from .kg import SPLIT_FILES, build_index, load_dataset, write_dataset
from .kinship import generate_kinship
from .trainer import (
    CONFIG_FIELDS,
    TrainConfig,
    TrainingAborted,
    config_from_text,
    config_values,
    estimate_peak_bytes,
    layer_sweep,
    param_count_report,
    train,
)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
MEMINFO = "/proc/meminfo"


def configure_logging() -> None:
    """Console verbosity follows TRANSGCN_LOG; file handlers see everything."""
    raw = os.environ.get("TRANSGCN_LOG", "info").lower()
    if raw not in _LOG_LEVELS:
        raise ConfigError(
            f"TRANSGCN_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}"
        )
    root = logging.getLogger("transgcn")
    root.setLevel(logging.DEBUG)
    console = next(
        (h for h in root.handlers if getattr(h, "_transgcn_console", False)), None
    )
    if console is None:
        console = logging.StreamHandler(sys.stderr)
        console.setFormatter(logging.Formatter("%(message)s"))
        console._transgcn_console = True
        root.addHandler(console)
    console.setLevel(_LOG_LEVELS[raw])


def read_config_file(path) -> dict:
    """Field values of a ``--config`` file (grammar: ``config_from_text``)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return config_from_text(text, str(path))


def resolve_config(args) -> TrainConfig:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    values = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in CONFIG_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return TrainConfig(**values)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per config field: the field name with `_` spelled `-`."""
    p.add_argument("--config", help="flat key=value config file")
    for name, kind in CONFIG_FIELDS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _numerics() -> dict:
    """What trained bits depend on besides the seed: numpy, its BLAS, the BLAS threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy only prints its config
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "env": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _write_manifest(out: Path, data_dir: Path, config: TrainConfig) -> Path:
    manifest = {
        "tool_version": __version__,
        "config": config_values(config),
        "seed": config.seed,
        "numerics": _numerics(),
        "dataset": {
            "directory": str(data_dir),
            "sha256": {name: _sha256(data_dir / name) for name in SPLIT_FILES},
        },
        "artifacts": {
            "checkpoint": str(out / "model.ckpt"),
            "log": str(out / "train.log"),
            "manifest": str(out / "manifest.json"),
        },
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open(MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _check_memory(config: TrainConfig, kg) -> None:
    """Refuse up front a run whose estimated peak exceeds the available memory."""
    need = estimate_peak_bytes(config, kg.num_entities, kg.num_relations, len(kg.train))
    available = _mem_available()
    if available is not None and need > available:
        raise MemoryBudgetError(
            f"training needs an estimated {need / 2**30:.2f} GiB, more than the "
            f"{available / 2**30:.2f} GiB available; lower dim, batch or negatives"
        )


def _check_vocabulary(checkpoint, kg) -> None:
    """Refuse a checkpoint whose entity or relation names differ from the dataset's."""
    for kind, ours, theirs in (
        ("entities", kg.entity_names, checkpoint.entity_names),
        ("relations", kg.relation_names, checkpoint.relation_names),
    ):
        if ours != theirs:
            raise ConfigError(
                f"vocabulary mismatch: dataset has {len(ours)} {kind}, "
                f"checkpoint has {len(theirs)} (or ordering differs)"
            )


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    config = resolve_config(args)
    kg = load_dataset(data_dir)
    _check_memory(config, kg)
    init_state = None
    if args.init_from:
        prior = load_checkpoint(args.init_from)
        _check_vocabulary(prior, kg)
        init_state = prior.state
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, data_dir, config)
    log_handler = logging.FileHandler(out / "train.log", mode="w", encoding="utf-8")
    log_handler.setFormatter(logging.Formatter("%(message)s"))
    log_handler.setLevel(logging.INFO)
    trainer_logger = logging.getLogger("transgcn.trainer")
    trainer_logger.addHandler(log_handler)
    try:
        checkpoint = train(kg, config, init_state=init_state)
    except TrainingAborted as err:
        save_checkpoint(err.checkpoint, out / "model.ckpt")
        print(f"error: {err} (last-good checkpoint saved)", file=sys.stderr)
        return 3
    finally:
        trainer_logger.removeHandler(log_handler)
        log_handler.close()
    save_checkpoint(checkpoint, out / "model.ckpt")
    best = checkpoint.best_valid_mrr
    shown = "n/a" if np.isnan(best) else f"{best:.6f}"
    print(f"checkpoint\t{out / 'model.ckpt'}")
    print(f"best_valid_mrr\t{shown}")
    print(f"best_epoch\t{checkpoint.epoch}")
    return 0


def _load_matching(args):
    checkpoint = load_checkpoint(args.checkpoint)
    kg = load_dataset(args.data)
    _check_vocabulary(checkpoint, kg)
    return checkpoint, kg


def cmd_eval(args) -> int:
    checkpoint, kg = _load_matching(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before the ranking, so a bad --out fails fast
    config = checkpoint.config
    index = build_index(kg)
    entities, relations = encode_arrays(checkpoint.state, index)
    report = evaluate(kg, args.split, entities, relations, config.assumption, config.norm,
                      threads=args.threads)
    payload = report.to_dict()
    print(f"split\t{args.split}")
    print(f"mrr\t{report.mrr:.6f}")
    print(f"hits@1\t{report.hits1:.6f}")
    print(f"hits@3\t{report.hits3:.6f}")
    print(f"hits@10\t{report.hits10:.6f}")
    if args.buckets:
        rows = degree_bucket_report(report, index)
        payload["buckets"] = rows
        print("degree\tqueries\tmrr")
        for row in rows:
            print(f"[{row['min_degree']},{row['max_degree']})\t"
                  f"{row['queries']}\t{row['mrr']:.6f}")
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    checkpoint, kg = _load_matching(args)
    config = checkpoint.config
    head, relation, tail = args.head, args.relation, args.tail
    holes = [x == "?" for x in (head, relation, tail)]
    if holes[1] or sum(holes) != 1:
        raise ConfigError("query must be exactly `h r ?` or `? r t`")
    if relation not in kg.relation_names:
        raise ConfigError(f"unknown relation name {relation!r}")
    rel_id = kg.relation_names.index(relation)
    entity_ids = {name: i for i, name in enumerate(kg.entity_names)}
    side = "tail" if holes[2] else "head"
    fixed = head if side == "tail" else tail
    if fixed not in entity_ids:
        raise ConfigError(f"unknown entity name {fixed!r}")
    fixed_id = entity_ids[fixed]
    index = build_index(kg)
    entities, relations = encode_arrays(checkpoint.state, index)
    scores = candidate_scores(
        entities, relations, rel_id, [fixed_id], side, config.assumption, config.norm
    )[0]
    blocked = np.zeros(kg.num_entities, dtype=bool)
    blocked[KnownFilter(kg).lookup([fixed_id], rel_id, side)[1]] = True
    order = np.argsort(-scores, kind="stable")
    flags = blocked[order]
    if not args.keep_known:
        order, flags = order[~flags], flags[~flags]
    for rank, (candidate, flagged) in enumerate(zip(order[: args.k], flags), 1):
        row = f"{kg.entity_names[candidate]}\t{scores[candidate]:.6f}\t{rank}"
        print(row + "\tknown" if flagged else row)
    return 0


def cmd_inspect(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    config = checkpoint.config
    for name, value in config_values(config).items():
        print(f"config.{name}\t{value}")
    print(f"entities\t{len(checkpoint.entity_names)}")
    print(f"relations\t{len(checkpoint.relation_names)}")
    print(f"epoch\t{checkpoint.epoch}")
    best = checkpoint.best_valid_mrr
    print(f"best_valid_mrr\t{'n/a' if np.isnan(best) else f'{best:.6f}'}")
    report = param_count_report(
        config,
        len(checkpoint.entity_names),
        len(checkpoint.relation_names),
        rgcn_basis_B=args.basis,
    )
    for key, value in report.items():
        print(f"params.{key}\t{value}")
    if config.assumption.value == "rotation":
        rows = materialize_relations(checkpoint.state).values
        half = rows.shape[1] // 2
        modulus = np.hypot(rows[:, :half], rows[:, half:])
        print(f"rotation_modulus_max_deviation\t{np.max(np.abs(modulus - 1.0)):.3e}")
    return 0


def cmd_sweep(args) -> int:
    config = resolve_config(args)
    kg = load_dataset(args.data)
    try:
        counts = [int(x) for x in args.layer_counts.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"--layer-counts expects integers, got {args.layer_counts!r}")
    if not counts:
        raise ConfigError("--layer-counts is empty")
    for count in counts:  # refuse a bad count before training any model
        config.replace(layers=count)
    _check_memory(config.replace(layers=max(counts)), kg)
    if args.out:  # before the training, so a bad --out fails fast
        Path(args.out).mkdir(parents=True, exist_ok=True)
    rows = layer_sweep(kg, config, counts, split=args.split)
    print("layers\tmrr\thits@10")
    for row in rows:
        print(f"{row['layers']}\t{row['mrr']:.6f}\t{row['hits10']:.6f}")
    if args.out:
        Path(args.out, "sweep.json").write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_gen_toy(args) -> int:
    kg = generate_kinship(
        seed=args.seed,
        founder_couples=args.couples,
        valid_size=args.valid_size,
        test_size=args.test_size,
    )
    write_dataset(kg, args.out)
    print(f"entities\t{kg.num_entities}")
    print(f"relations\t{kg.num_relations}")
    print(f"train\t{len(kg.train)}")
    print(f"valid\t{len(kg.valid)}")
    print(f"test\t{len(kg.test)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transgcn",
        description="Knowledge-graph embeddings with relation-aware graph convolutions.",
    )
    parser.add_argument("--version", action="version", version=f"transgcn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write artifacts")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--out", default="run", help="artifact directory")
    p_train.add_argument("--init-from", dest="init_from",
                         help="warm-start from an existing checkpoint")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="filtered ranking metrics for a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p_eval.add_argument("--buckets", action="store_true",
                        help="also report MRR by train degree")
    p_eval.add_argument("--threads", type=int, default=1)
    p_eval.add_argument("--out", default=".", help="directory for report.json")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="top-k completions for a partial triple")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--k", type=int, default=10)
    p_pred.add_argument("--keep-known", action="store_true", dest="keep_known",
                        help="keep known completions, annotated, instead of filtering")
    p_pred.add_argument("head", metavar="HEAD", help="entity name, or ? to predict it")
    p_pred.add_argument("relation", metavar="RELATION", help="relation name")
    p_pred.add_argument("tail", metavar="TAIL", help="entity name, or ? to predict it")
    p_pred.set_defaults(func=cmd_predict)

    p_ins = sub.add_parser("inspect", help="summarize a checkpoint")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.add_argument("--basis", type=int, default=2,
                       help="basis count B for the R-GCN comparison")
    p_ins.set_defaults(func=cmd_inspect)

    p_sweep = sub.add_parser("sweep", help="train and evaluate across layer counts")
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--layer-counts", default="0,1,2", dest="layer_counts")
    p_sweep.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p_sweep.add_argument("--out", default=None)
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_toy = sub.add_parser("gen-toy", help="write the synthetic kinship dataset")
    p_toy.add_argument("--out", required=True)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--couples", type=int, default=12)
    p_toy.add_argument("--valid-size", type=int, default=150, dest="valid_size")
    p_toy.add_argument("--test-size", type=int, default=150, dest="test_size")
    p_toy.set_defaults(func=cmd_gen_toy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configure_logging()
        return args.func(args)
    except NumericError as err:  # includes TrainingAborted escaping from sweep
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ParseError, CheckpointError, ShapeError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
