"""Versioned binary checkpoints with bit-exact reload.

Layout, all integers little-endian:

    magic \"TGCNCKPT\" (8 bytes)
    format version        u32
    config block          u64 byte length + UTF-8 \"key=value\" lines
    entity name table     u64 count, then per name u64 byte length + UTF-8
    relation name table   same encoding
    best validation MRR   f64 (NaN when no validation ran)
    epoch                 u64
    parameter arrays      per array u64 rows, u64 cols, rows*cols f64
                          order: entities, relations, then w0/w1 per layer
    adam step             u64
    adam moments          m then v per parameter, same order and encoding

Config values are written in their str() form (repr() for floats), which
round-trips exactly, so save -> load -> save reproduces identical bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from .encoder import ModelState
from .errors import CheckpointError, ConfigError, NumericError, ShapeError
from .trainer import (
    CHECKPOINT_VERSION,
    CONFIG_FIELDS,
    Checkpoint,
    TrainConfig,
    config_values,
    parse_config_value,
)

MAGIC = b"TGCNCKPT"


def _config_text(config: TrainConfig) -> str:
    return "".join(f"{key}={value}\n" for key, value in config_values(config).items())


def _parse_config(text: str) -> TrainConfig:
    kwargs = {}
    try:
        for line in text.splitlines():
            if not line.strip():
                continue
            key, sep, value = line.partition("=")
            if not sep or key not in CONFIG_FIELDS:
                raise CheckpointError(f"unrecognized config line {line!r}")
            kwargs[key] = parse_config_value(key, value)
        missing = CONFIG_FIELDS.keys() - kwargs.keys()
        if missing:
            raise CheckpointError(f"config block missing fields: {sorted(missing)}")
        return TrainConfig(**kwargs)
    except ConfigError as err:
        raise CheckpointError(f"stored config is invalid: {err}") from err


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self.parts.append(data)

    def u32(self, n: int) -> None:
        self.raw(struct.pack("<I", n))

    def u64(self, n: int) -> None:
        self.raw(struct.pack("<Q", n))

    def f64(self, x: float) -> None:
        self.raw(struct.pack("<d", x))

    def text(self, s: str) -> None:
        data = s.encode("utf-8")
        self.u64(len(data))
        self.raw(data)

    def array(self, arr: np.ndarray) -> None:
        rows, cols = arr.shape
        self.u64(rows)
        self.u64(cols)
        self.raw(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def text(self) -> str:
        return self.take(self.u64()).decode("utf-8")

    def array(self) -> np.ndarray:
        rows = self.u64()
        cols = self.u64()
        buf = self.take(rows * cols * 8)
        return np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy()

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CheckpointError("trailing data after checkpoint payload")


def to_bytes(checkpoint: Checkpoint) -> bytes:
    w = _Writer()
    w.raw(MAGIC)
    w.u32(checkpoint.version)
    w.text(_config_text(checkpoint.config))
    for table in (checkpoint.entity_names, checkpoint.relation_names):
        w.u64(len(table))
        for name in table:
            w.text(name)
    w.f64(checkpoint.best_valid_mrr)
    w.u64(checkpoint.epoch)
    params = checkpoint.state.parameters()
    for tensor in params.values():
        w.array(tensor.values)
    w.u64(checkpoint.adam_step)
    for name, tensor in params.items():
        w.array(checkpoint.adam_m.get(name, np.zeros_like(tensor.values)))
        w.array(checkpoint.adam_v.get(name, np.zeros_like(tensor.values)))
    return b"".join(w.parts)


def from_bytes(data: bytes) -> Checkpoint:
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError("bad checkpoint header")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    config = _parse_config(r.text())
    entity_names = [r.text() for _ in range(r.u64())]
    relation_names = [r.text() for _ in range(r.u64())]
    best_valid_mrr = r.f64()
    epoch = r.u64()
    arrays = [r.array() for _ in range(2 + 2 * config.layers)]
    try:
        state = ModelState.from_arrays(config.assumption, arrays)
    except NumericError as err:
        raise CheckpointError(f"unusable checkpoint arrays: {err}") from err
    entities, relations = arrays[:2]
    if entities.shape != (len(entity_names), config.dim):
        raise CheckpointError(
            f"entity array {entities.shape} does not match "
            f"{len(entity_names)} names at dim {config.dim}"
        )
    if relations.shape != (len(relation_names), config.relation_dim):
        raise CheckpointError(
            f"relation array {relations.shape} does not match "
            f"{len(relation_names)} names at width {config.relation_dim}"
        )
    try:
        state.validate()
    except ShapeError as err:
        raise CheckpointError(f"inconsistent checkpoint arrays: {err}") from err
    adam_step = r.u64()
    adam_m, adam_v = {}, {}
    for name, tensor in state.parameters().items():
        m = r.array()
        v = r.array()
        if m.shape != tensor.values.shape or v.shape != tensor.values.shape:
            raise CheckpointError(f"adam moments for {name} have the wrong shape")
        adam_m[name], adam_v[name] = m, v
    r.done()
    return Checkpoint(
        config=config,
        state=state,
        entity_names=entity_names,
        relation_names=relation_names,
        best_valid_mrr=best_valid_mrr,
        epoch=epoch,
        adam_step=adam_step,
        adam_m=adam_m,
        adam_v=adam_v,
        version=version,
    )


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_bytes(checkpoint))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
