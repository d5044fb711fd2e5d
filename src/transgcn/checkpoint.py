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
round-trips exactly, so save -> load -> save reproduces identical bytes.  The
config block is read with the grammar of ``--config`` files
(``trainer.config_from_text``) and must name every field.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .encoder import ModelState, parameter_shapes
from .errors import CheckpointError, ConfigError, NumericError
from .trainer import (
    CHECKPOINT_VERSION,
    CONFIG_FIELDS,
    Checkpoint,
    TrainConfig,
    config_from_text,
    config_values,
)

MAGIC = b"TGCNCKPT"


def _text(s: str) -> bytes:
    data = s.encode("utf-8")
    return struct.pack("<Q", len(data)) + data


def _array(arr: np.ndarray):
    yield struct.pack("<QQ", *arr.shape)
    yield np.ascontiguousarray(arr, dtype="<f8")  # no copy of a C-ordered float64 array


class _Reader:
    """Reads a checkpoint's fields in order from an open, seekable binary file."""

    def __init__(self, fh) -> None:
        self.fh, self.size = fh, fh.seek(0, io.SEEK_END)
        self.pos = fh.seek(0)

    def _advance(self, n: int) -> None:
        if self.pos + n > self.size:  # refused before anything is allocated
            raise CheckpointError("truncated checkpoint")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        data = self.fh.read(n)
        if len(data) != n:  # the file shrank after its size was taken
            raise CheckpointError("truncated checkpoint")
        return data

    def unpack(self, fmt: str) -> tuple:
        """The little-endian fields of struct format ``fmt``, e.g. "QQ"."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        try:
            return self.take(self.unpack("Q")[0]).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"checkpoint text is not UTF-8: {err}") from err

    def array(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        """The next array, read straight into place; refused unless it has ``shape``."""
        rows, cols = self.unpack("QQ")
        if (rows, cols) != shape:
            raise CheckpointError(f"{name} array is {(rows, cols)}, expected {shape}")
        self._advance(rows * cols * 8)
        out = np.empty(shape, dtype="<f8")
        if self.fh.readinto(out) != out.nbytes:
            raise CheckpointError("truncated checkpoint")
        return out


def _parts(checkpoint: Checkpoint):
    """The checkpoint's bytes, field by field, in file order."""
    config = "".join(f"{k}={v}\n" for k, v in config_values(checkpoint.config).items())
    yield from (MAGIC, struct.pack("<I", checkpoint.version), _text(config))
    for table in (checkpoint.entity_names, checkpoint.relation_names):
        yield struct.pack("<Q", len(table))
        yield from map(_text, table)
    yield struct.pack("<dQ", checkpoint.best_valid_mrr, checkpoint.epoch)
    params = checkpoint.state.parameters()
    for tensor in params.values():
        yield from _array(tensor.values)
    yield struct.pack("<Q", checkpoint.adam_step)
    for name, tensor in params.items():
        for moments in (checkpoint.adam_m, checkpoint.adam_v):
            yield from _array(moments.get(name, np.zeros_like(tensor.values)))


def to_bytes(checkpoint: Checkpoint) -> bytes:
    return b"".join(_parts(checkpoint))


def _read(fh) -> Checkpoint:
    r = _Reader(fh)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError("bad checkpoint header")
    (version,) = r.unpack("I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        values = config_from_text(r.text(), "config block")
        missing = CONFIG_FIELDS.keys() - values.keys()
        if missing:
            raise CheckpointError(f"config block missing fields: {sorted(missing)}")
        config = TrainConfig(**values)
    except ConfigError as err:
        raise CheckpointError(f"stored config is invalid: {err}") from err
    entity_names = [r.text() for _ in range(r.unpack("Q")[0])]
    relation_names = [r.text() for _ in range(r.unpack("Q")[0])]
    best_valid_mrr, epoch = r.unpack("dQ")
    shapes = parameter_shapes(config.assumption, config.dim, config.layers,
                              len(entity_names), len(relation_names))
    arrays = [r.array(name, shape) for name, shape in shapes.items()]
    try:
        state = ModelState.from_arrays(config.assumption, arrays)
    except NumericError as err:
        raise CheckpointError(f"unusable checkpoint arrays: {err}") from err
    (adam_step,) = r.unpack("Q")
    adam_m, adam_v = {}, {}
    for name, shape in shapes.items():
        adam_m[name] = r.array(f"adam moments m of {name}", shape)
        adam_v[name] = r.array(f"adam moments v of {name}", shape)
    if r.pos != r.size:
        raise CheckpointError("trailing data after checkpoint payload")
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


def from_bytes(data: bytes) -> Checkpoint:
    return _read(io.BytesIO(data))


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_parts(checkpoint))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:  # a pipe cannot seek, so it is read whole first
        return _read(fh if fh.seekable() else io.BytesIO(fh.read()))
