"""Training loop: Adam updates, epoch scheduling, validation selection.

The schedule has two phases.  The first ``pretrain_epochs`` epochs run the
zero-layer degenerate model (plain translation or rotation scoring) to warm
up the embeddings; the remaining epochs train the full stack.  Every
``eval_every`` epochs of the full phase the validation filtered MRR is
computed and the best-scoring parameters are kept.  Message passing is
always over the whole train graph; batching applies only to the positive
triples entering the loss.
"""

from __future__ import annotations

import copy
import dataclasses
import logging
import math
import numbers
import typing
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward
from .encoder import Assumption, ModelState, encode, encode_arrays, parameter_shapes
from .errors import ConfigError, NumericError, ShapeError
from .evaluator import evaluate
from .kg import CHUNK, KnowledgeGraph, build_index
from .objective import (
    batch_margin_loss,
    batch_self_adv_loss,
    batch_self_adv_weights,
    sample_negatives,
    score_triples,
)

logger = logging.getLogger("transgcn.trainer")

SAMPLING_MODES = ("vanilla", "self-adversarial")


@dataclass
class TrainConfig:
    """Full training surface; every field lands in the checkpoint.

    ``gamma`` and ``sampling`` left as None resolve per assumption: rotation
    gets gamma 12.0 with self-adversarial sampling, translation gets gamma
    1.0 with vanilla sampling.
    """

    assumption: Assumption = Assumption.TRANSLATION
    layers: int = 1
    dim: int = 32
    gamma: float | None = None
    alpha: float = 1.0
    negatives: int = 10
    lr: float = 0.001
    epochs: int = 100
    batch: int = 128
    eval_every: int = 10
    seed: int = 0
    norm: str = "l1"
    sampling: str | None = None
    pretrain_epochs: int = 0
    clip: float = 10.0  # global L2 gradient norm cap, 0 disables

    def __post_init__(self) -> None:
        try:
            self.assumption = Assumption(self.assumption)
        except ValueError:
            choices = tuple(a.value for a in Assumption)
            raise ConfigError(
                f"assumption must be one of {choices}, got {self.assumption!r}") from None
        self.norm = str(self.norm).lower()
        if self.sampling is not None:
            self.sampling = str(self.sampling).lower()
        if self.sampling == "selfadv":  # accepted short spelling
            self.sampling = "self-adversarial"
        if self.gamma is None:
            self.gamma = 12.0 if self.assumption is Assumption.ROTATION else 1.0
        if self.sampling is None:
            self.sampling = (
                "self-adversarial" if self.assumption is Assumption.ROTATION else "vanilla"
            )
        for name, kind in CONFIG_FIELDS.items():  # plain numbers, whose text form reads back
            value = getattr(self, name)
            if kind is not str:
                if not isinstance(value, numbers.Integral if kind is int else numbers.Real):
                    raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}"
                                      f", got {value!r}")
                try:
                    setattr(self, name, kind(value))
                except OverflowError:  # float() of an int too large for a float
                    raise ConfigError(f"{name} is too large for a float") from None
        self.validate()

    def validate(self) -> None:
        checks = [
            (math.isfinite(self.lr) and self.lr > 0,
             f"lr must be finite and positive, got {self.lr}"),
            (self.layers >= 0, f"layers must be >= 0, got {self.layers}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.dim >= 2, f"dim must be >= 2, got {self.dim}"),
            (self.negatives >= 1, f"negatives must be >= 1, got {self.negatives}"),
            (self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
            (self.batch >= 1, f"batch must be >= 1, got {self.batch}"),
            (self.eval_every >= 1, f"eval_every must be >= 1, got {self.eval_every}"),
            (self.pretrain_epochs >= 0,
             f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}"),
            (math.isfinite(self.clip) and self.clip >= 0,
             f"clip must be finite and >= 0, got {self.clip}"),
            (math.isfinite(self.gamma), f"gamma must be finite, got {self.gamma}"),
            (math.isfinite(self.alpha) and self.alpha >= 0,
             f"alpha must be finite and >= 0, got {self.alpha}"),
            (self.norm in ad.NORMS, f"norm must be one of {ad.NORMS}, got {self.norm!r}"),
            (self.sampling in SAMPLING_MODES,
             f"sampling must be one of {SAMPLING_MODES}, got {self.sampling!r}"),
        ]
        if self.assumption is Assumption.ROTATION and self.dim % 2:
            raise ConfigError(f"rotation needs an even dim, got {self.dim}")
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def replace(self, **changes) -> "TrainConfig":
        return dataclasses.replace(self, **changes)


# Field name -> parser of its text form, in field order: int or float for a
# numeric field, else str (TrainConfig normalizes and validates names).  Used by
# config files, CLI flags, the checkpoint config block, manifest.json, inspect.
CONFIG_FIELDS: dict[str, type] = {
    name: next((t for t in (int, float) if t in (hint, *typing.get_args(hint))), str)
    for name, hint in typing.get_type_hints(TrainConfig).items()
}


def config_from_text(text: str, where: str) -> dict:
    """Field values from flat `key = value` lines; `#` starts a comment.

    The one grammar of config text: ``--config`` files and the checkpoint
    config block.  Errors name ``where:line``; a key given twice names both lines.
    """
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"{where}:{lineno}: expected key = value, got {raw!r}")
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"{where}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigError(f"{where}:{lineno}: config key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = CONFIG_FIELDS[key](value)
        except ValueError:
            raise ConfigError(
                f"{where}:{lineno}: config key {key!r} has a bad value {value!r}"
            ) from None
    return values


def config_values(config: TrainConfig) -> dict:
    """Field name -> plain value (enums as their value); str() gives the text form."""
    values = {name: getattr(config, name) for name in CONFIG_FIELDS}
    return {k: v.value if isinstance(v, Enum) else v for k, v in values.items()}


@dataclass
class Checkpoint:
    """A model and its Adam state; ``train`` updates one in place and deep-copies each best."""

    config: TrainConfig
    state: ModelState
    entity_names: list[str]
    relation_names: list[str]
    best_valid_mrr: float  # NaN when no validation split was evaluated
    epoch: int
    adam_step: int = 0
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)


class TrainingAborted(NumericError):
    """Raised when a run hits non-finite numbers; carries the last-good model."""

    def __init__(self, message: str, checkpoint: Checkpoint):
        super().__init__(message)
        self.checkpoint = checkpoint


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator floor


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    moments: tuple[np.ndarray, np.ndarray],
    lr: float,
    t: int = 1,
) -> np.ndarray:
    """One bias-corrected Adam update, of m and v in place; returns the new parameter.

    The float ops are those of ``param - lr * m_hat / (sqrt(v_hat) + eps)``."""
    m, v = moments
    if not (param.shape == grad.shape == m.shape == v.shape):
        raise ShapeError(
            f"adam_step shapes disagree: param {param.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}"
        )
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad * grad
    out = v / (1.0 - BETA2**t)  # sqrt(v_hat) + eps, then the new parameter
    np.sqrt(out, out=out)
    out += EPS
    return np.subtract(param, lr * (m / (1.0 - BETA1**t)) / out, out=out)


def init_parameters(
    config: TrainConfig,
    num_entities: int,
    num_relations: int,
    rng: np.random.Generator,
) -> ModelState:
    """Fresh ModelState; draw order is entities, relations, then layer weights."""
    entities, relations, *weights = _shapes(config, num_entities, num_relations).values()
    limit = 6.0 / math.sqrt(config.dim)
    arrays = [rng.uniform(-limit, limit, size=entities)]
    if config.assumption is Assumption.ROTATION:
        arrays.append(rng.uniform(0.0, 2.0 * math.pi, size=relations))
    else:
        vectors = rng.uniform(-limit, limit, size=relations)
        arrays.append(vectors / np.abs(vectors).sum(axis=1, keepdims=True))
    arrays += [np.eye(*w) + rng.uniform(-0.01, 0.01, size=w) for w in weights]
    return ModelState.from_arrays(config.assumption, arrays)


def _shapes(config: TrainConfig, num_entities: int, num_relations: int) -> dict:
    return parameter_shapes(config.assumption, config.dim, config.layers,
                            num_entities, num_relations)


def _clip_gradients(params: dict[str, ad.Tensor], max_norm: float) -> float:
    total = math.sqrt(sum(float(np.square(p.grad).sum()) for p in params.values()))
    if not math.isfinite(total):
        raise NumericError("gradient norm is not finite")
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for p in params.values():
            p.grad *= factor
    return total


def estimate_peak_bytes(
    config: TrainConfig, num_entities: int, num_relations: int, num_edges: int
) -> int:
    """Upper estimate of the heap ``train`` takes on top of the loaded graph.

    It counts 8-byte words: 7 copies of the parameters (live values, gradients
    and Adam moments, and the values and moments of the one best snapshot), 2
    entity tables per layer (output, scaled sums; every layer's output gradient
    is the entity gradient) plus 3 for the temporaries of the largest phase
    (backward: gradients through W0 and the neighbor sum; Adam; validation),
    20 words per score row (the batch x (1 + negatives) sampled ids, scores and
    loss columns), 22 ``kg.CHUNK`` x d temporaries of scoring and message
    passing, and 22 words per train edge: up to 4 per edge of the index's walks
    (2E by destination, E by relation; two ids, a run start and a run key), 10
    for order and index build.
    """
    d, n = config.dim, num_entities
    sizes = [r * c for r, c in _shapes(config.replace(layers=1), n, num_relations).values()]
    params = sizes[0] + sizes[1] + config.layers * sum(sizes[2:])  # one layer's, times L
    score_rows = config.batch * (1 + config.negatives)
    words = (7 * params + (2 * config.layers + 3) * n * d + 20 * score_rows
             + 22 * CHUNK * d + 22 * num_edges)
    return 8 * words


def train(
    kg: KnowledgeGraph, config: TrainConfig, init_state: ModelState | None = None
) -> Checkpoint:
    """Run the two-phase schedule; return the best checkpoint, else the live run.

    ``init_state`` warm-starts from existing parameters, whose assumption
    must be the config's and whose shapes must be the ``parameter_shapes``
    of the config and graph, else ConfigError before any step; fresh Adam
    moments either way.  A non-finite loss or update aborts the run by
    raising TrainingAborted, whose ``checkpoint`` attribute holds the best
    (or last-good) model.
    """
    config.validate()
    if not len(kg.train):
        raise ConfigError("train split is empty")
    index = build_index(kg)
    ss = np.random.SeedSequence(config.seed)
    init_seq, sample_seq = ss.spawn(2)
    init_rng = np.random.default_rng(init_seq)
    sample_rng = np.random.default_rng(sample_seq)
    if init_state is not None:
        if init_state.assumption is not config.assumption:
            raise ConfigError(f"warm-start assumption {init_state.assumption.value} does not "
                              f"match config {config.assumption.value}")
        try:
            init_state.validate(expected=_shapes(config, kg.num_entities, kg.num_relations))
        except ShapeError as err:
            raise ConfigError(f"warm-start state does not fit config and graph: {err}") from None
        # fresh leaves: a deep copy would carry the caller's gradients and flags
        arrays = [p.values.copy() for p in init_state.parameters().values()]
        state = ModelState.from_arrays(config.assumption, arrays)
    else:
        state = init_parameters(config, kg.num_entities, kg.num_relations, init_rng)
    run = Checkpoint(config, state, list(kg.entity_names), list(kg.relation_names),
                     best_valid_mrr=float("nan"), epoch=0)
    for name, p in state.parameters().items():
        run.adam_m[name], run.adam_v[name] = np.zeros_like(p.values), np.zeros_like(p.values)
    pretrain_end = min(config.pretrain_epochs, config.epochs)
    has_valid = len(kg.valid) > 0
    best: Checkpoint | None = None
    n = config.negatives

    def loss_and_gradients(step_state: ModelState, chunk: np.ndarray) -> float:
        """Forward and backward pass of one batch; returns the loss value.

        The tape and every intermediate die on return, so the Adam update's
        temporaries do not stack on top of the step's graph.
        """
        ph, pr, pt = kg.train[chunk].T
        nh, nr, nt = sample_negatives(ph, pr, pt, n, kg.num_entities, sample_rng)
        with Tape() as tape:
            entities, relations = encode(step_state, index)
            pos_scores = score_triples(
                entities, relations, ph, pr, pt, config.assumption, config.norm
            )
            neg_scores = score_triples(
                entities, relations, nh, nr, nt, config.assumption, config.norm
            )
            if config.sampling == "vanilla":
                loss = batch_margin_loss(pos_scores, neg_scores, config.gamma, n)
            else:
                weights = batch_self_adv_weights(neg_scores, config.alpha, n)
                loss = batch_self_adv_loss(
                    pos_scores, neg_scores, weights, config.gamma, n
                )
        backward(tape, loss)
        return float(loss.values[0, 0])

    def run_epoch(epoch: int) -> float:
        active = 0 if epoch <= pretrain_end else config.layers
        step_state = (
            state
            if active == config.layers
            else dataclasses.replace(state, layers=state.layers[:active])
        )
        # only the leaves this phase uses are updated: layer weights sit out the
        # pretrain epochs, which come first, so their moments are zero when they join
        params = step_state.parameters()
        order = sample_rng.permutation(len(kg.train))
        total = 0.0
        for start in range(0, len(order), config.batch):
            chunk = order[start : start + config.batch]
            total += loss_and_gradients(step_state, chunk) * len(chunk)
            _clip_gradients(params, config.clip)
            run.adam_step += 1
            for name, p in params.items():
                moments = (run.adam_m[name], run.adam_v[name])
                updated = adam_step(p.values, p.grad, moments, config.lr, t=run.adam_step)
                p.grad = None  # made again by the next backward pass
                p.values = ad._check_finite(updated, f"the update of {name} at step {run.adam_step}")
        return total / len(order)

    try:
        for epoch in range(1, config.epochs + 1):
            mean_loss = run_epoch(epoch)
            should_eval = has_valid and (
                epoch == config.epochs
                or (epoch > pretrain_end and epoch % config.eval_every == 0)
            )
            if should_eval:
                entities, relations = encode_arrays(state, index)
                mrr = evaluate(
                    kg, "valid", entities, relations, config.assumption, config.norm
                ).mrr
                logger.info("%d\t%.6f\t%.6f", epoch, mean_loss, mrr)
                if best is None or mrr > best.best_valid_mrr:
                    best = None  # drop the old snapshot before copying the new one
                    best = copy.deepcopy(run)
                    best.best_valid_mrr, best.epoch = mrr, epoch
            else:
                logger.info("%d\t%.6f", epoch, mean_loss)
            run.epoch = epoch  # the last whole epoch, the one an abort falls back to
    except NumericError as err:
        if best is None:
            best = run
            for p in state.parameters().values():
                p.grad = None
        logger.error("aborting at epoch %d: %s", epoch, err)
        raise TrainingAborted(f"training diverged at epoch {epoch}: {err}", best) from err
    return run if best is None else best


def layer_sweep(kg: KnowledgeGraph, config: TrainConfig, layer_counts,
                split: str = "test") -> list[dict]:
    """Train one model per layer count (shared seed/config) and compare."""
    if not len(kg.split(split)):  # refuse before training any model
        raise ValueError(f"cannot evaluate an empty {split} split")
    index = build_index(kg)
    rows = []
    for layers in layer_counts:
        cfg = config.replace(layers=int(layers))
        checkpoint = train(kg, cfg)
        entities, relations = encode_arrays(checkpoint.state, index)
        report = evaluate(kg, split, entities, relations, cfg.assumption, cfg.norm)
        rows.append({"layers": int(layers), "mrr": report.mrr, "hits10": report.hits10})
    return rows


def param_count_report(
    config: TrainConfig,
    num_entities: int,
    num_relations: int,
    rgcn_basis_B: int = 2,
) -> dict:
    """Own parameter count plus savings versus R-GCN at basis count B.

    Positive savings mean this model is smaller.  Block-diagonal entries use
    the same B as the block count.
    """
    if rgcn_basis_B < 1:
        raise ValueError(f"basis count must be >= 1, got {rgcn_basis_B}")
    e, r = num_entities, num_relations
    d, layer_count, b = config.dim, config.layers, rgcn_basis_B
    own_entities, own_relations, *weights = (x * y for x, y in _shapes(config, e, r).values())
    own_layers = sum(weights)
    block_sq = (d / b) ** 2

    def as_count(x: float):
        return int(x) if float(x).is_integer() else float(x)

    return {
        "entities": own_entities,
        "relations": own_relations,
        "layers": own_layers,
        "own": own_entities + own_relations + own_layers,
        "vs_rgcn_basis_translation": (b - 1) * layer_count * d * d + 2 * b * r * layer_count,
        "vs_rgcn_block_translation": as_count(
            2 * b * r * layer_count * block_sq - layer_count * d * d
        ),
        "vs_rgcn_basis_rotation": (b - 5) * layer_count * d * d
        + 2 * b * r * layer_count
        - e * d,
        "vs_rgcn_block_rotation": as_count(
            2 * b * r * layer_count * block_sq - 5 * layer_count * d * d - e * d
        ),
    }
