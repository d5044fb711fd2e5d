"""Define-by-run reverse-mode differentiation over dense float64 matrices.

Every value is a 2-D row-major float64 ``Tensor``.  Ops are free functions;
while a :class:`Tape` is active (as a context manager) and any input requires
gradients, each op appends a backward closure to the tape.  ``backward``
walks the tape once in reverse, accumulating into ``Tensor.grad``.  Every
tensor, leaf or op result, starts with no gradient and gets one on its first
accumulation; ``backward`` skips results no gradient reached, and the owner
of a leaf drops its gradient (``grad = None``) once it has used it.
An op result's gradient belongs to its record, and nothing reads it after
that record runs, so ``relu`` and ``graph_conv`` mask it in place and adopt
it as an input's gradient (``_accumulate(..., fresh=True)``).
Tapes are rebuilt every training step and are confined to a single thread.

``_check_finite`` refuses NaN/Inf in op outputs at the op boundary and in
leaves at construction.  Complex rows are stored split-half, [re | im];
the fused ops gather and multiply them as separate re and im planes.
``neighbor_sum`` walks each edge both ways, the reverse under an inverse row;
its value and both gradients are sums over a ``kg.EdgeWalk``, taken by one
chunk loop, ``_walk_sum``.  ``graph_conv`` records a layer's entity update,
neighbor sum to relu, as one op.
"""

from __future__ import annotations

import numpy as np

from . import kg
from .errors import NumericError, ShapeError, StateError

RESET_MODULUS = 1e-12  # below this a normalized complex coordinate becomes 1+0i
NORMS = ("l1", "l2")  # the distances a triple is scored by

_tape_stack: list["Tape"] = []


class Tensor:
    """A 2-D float64 matrix with an optional gradient accumulator.

    Values are checked for NaN/inf where tensors are made: ``tensor()`` for
    leaves, ``_make_result`` for op results.
    """

    def __init__(self, values: np.ndarray, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D matrices, got shape {arr.shape}")
        self.values = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None  # allocated on the first accumulation
        self.name: str | None = None  # set on a model's parameters

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def tensor(values, requires_grad: bool = False) -> Tensor:
    """Create a finite leaf tensor (lists accepted, cast to float64)."""
    leaf = Tensor(values, requires_grad)
    _check_finite(leaf.values, "tensor")
    return leaf


class Tape:
    """Execution record for one forward pass; backward may run exactly once."""

    def __init__(self):
        self.records: list[tuple[Tensor, object]] = []  # (output, backward closure)
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        assert popped is self


def _check_finite(arr, what: str):  # the one NaN/inf check, also for factors and updates
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")
    return arr


def _make_result(arr: np.ndarray, inputs: tuple[Tensor, ...], op: str, backward_fn) -> Tensor:
    """Wrap a finite op result, recording the backward closure when tracking."""
    out = Tensor(_check_finite(arr, op))
    if _tape_stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape_stack[-1].records.append((out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:  # unless fresh, g may be a read-only view, or also go to another input
        t.grad = g if fresh else g.copy()
    else:
        t.grad += g


def _grad_of(t: Tensor) -> np.ndarray:
    """The gradient of ``t`` to scatter into, allocated as zeros on first use."""
    if t.grad is None:
        t.grad = np.zeros(t.shape)
    return t.grad


def _same_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "add")

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make_result(a.values + b.values, (a, b), "add", backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "sub")

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make_result(a.values - b.values, (a, b), "sub", backward_fn)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _same_shapes(a, b, "hadamard")

    def backward_fn(g):
        _accumulate(a, g * b.values)
        _accumulate(b, g * a.values)

    return _make_result(a.values * b.values, (a, b), "hadamard", backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def backward_fn(g):
        _accumulate(a, g @ b.values.T)
        _accumulate(b, a.values.T @ g)

    return _make_result(a.values @ b.values, (a, b), "matmul", backward_fn)


def scale(a: Tensor, k: float) -> Tensor:
    k = _check_finite(float(k), "scale factor")

    def backward_fn(g):
        _accumulate(a, k * g)

    return _make_result(k * a.values, (a,), "scale", backward_fn)


def _split(t: Tensor, op: str) -> int:
    if t.cols % 2:
        raise ShapeError(f"{op}: complex layout needs an even column count, got {t.cols}")
    return t.cols // 2


def _planar_product(ar, ai, br, bi, conj: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The re and im planes of a ∘ b, or of a ∘ b̄ when ``conj``, from those of a and b.

    The sign of b̄ is folded into the sums, the same bits as negating bi first.
    Sums are taken in place: a fresh array per operation costs more than the
    arithmetic at chunk size."""
    re = ar * br
    im = ai * br
    if conj:
        re += ai * bi
        im -= ar * bi
    else:
        re -= ai * bi
        im += ar * bi
    return re, im


def _planes(rows: np.ndarray, ids=...) -> tuple[np.ndarray, np.ndarray]:
    """re and im halves of split-half ``rows[ids]``; without ``ids``, views."""
    k = rows.shape[-1] // 2
    return rows[ids, :k], rows[ids, k:]


def complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinate-wise complex product of split-half [re | im] arrays.

    The halves are taken along the last axis; ``b`` may broadcast against
    ``a`` (one relation row against a whole entity table).
    """
    return np.concatenate(_planar_product(*_planes(a), *_planes(b)), axis=-1)


def complex_hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Tape-aware complex_product of two equal-shape tensors."""
    _same_shapes(a, b, "complex_hadamard")
    _split(a, "complex_hadamard")
    out = complex_product(a.values, b.values)

    def backward_fn(g):
        # d/da = g * conj(b), d/db = g * conj(a)
        _accumulate(a, np.hstack(_planar_product(*_planes(g), *_planes(b.values), conj=True)))
        _accumulate(b, np.hstack(_planar_product(*_planes(g), *_planes(a.values), conj=True)))

    return _make_result(out, (a, b), "complex_hadamard", backward_fn)


def complex_conjugate(a: Tensor) -> Tensor:
    k = _split(a, "complex_conjugate")
    out = a.values.copy()
    out[:, k:] = -out[:, k:]

    def backward_fn(g):
        ga = g.copy()
        ga[:, k:] = -ga[:, k:]
        _accumulate(a, ga)

    return _make_result(out, (a,), "complex_conjugate", backward_fn)


def _row_ids(ids, rows: int, op: str) -> np.ndarray:
    """``ids`` as a 1-D int64 array of row numbers below ``rows``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"{op}: ids must be a 1-D sequence")
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise IndexError(f"{op}: id out of range for {rows} rows")
    return ids


def gather_rows(m: Tensor, ids) -> Tensor:
    ids = _row_ids(ids, m.rows, "gather_rows")

    def backward_fn(g):
        if m.requires_grad:
            _scatter_add(_grad_of(m), ids, (g,))

    return _make_result(m.values[ids], (m,), "gather_rows", backward_fn)


def segment_sum(rows: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows into ``num_segments`` buckets; empty buckets stay zero."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.ndim != 1 or seg.size != rows.rows:
        raise ShapeError("segment_sum: need one segment id per row")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise IndexError(f"segment_sum: segment id out of range for {num_segments} segments")
    out = np.zeros((num_segments, rows.cols), dtype=np.float64)
    np.add.at(out, seg, rows.values)

    def backward_fn(g):
        _accumulate(rows, g[seg])

    return _make_result(out, (rows,), "segment_sum", backward_fn)


def _composed(table: np.ndarray, ids: np.ndarray, rel_rows: np.ndarray, rel_ids: np.ndarray,
              rotation: bool) -> tuple[np.ndarray, ...]:
    """The re and im planes of table[ids] ∘ r, or under translation table[ids] + r."""
    if rotation:
        return _planar_product(*_planes(table, ids), *_planes(rel_rows, rel_ids))
    rows = table[ids]
    np.add(rows, rel_rows[rel_ids], out=rows)
    return (rows,)


def _walk_sum(walk, shape: tuple[int, int], planes_of) -> np.ndarray:
    """Sum, chunk by chunk, the planes that ``planes_of`` makes from a chunk's id
    arrays into a ``shape`` array: out[keys[j]] += the sum of run j of each
    plane, a re and an im plane into the two halves of ``out``."""
    out = np.zeros(shape)
    for ids, starts, keys in walk.chunks():
        planes = planes_of(*ids)
        for block, rows in zip(_planes(out) if len(planes) == 2 else (out,), planes):
            block[keys] += np.add.reduceat(rows, starts, axis=0)
    return out


def _relation_planes(g: np.ndarray, ent: np.ndarray, h: np.ndarray, t: np.ndarray,
                     rotation: bool) -> tuple[np.ndarray, ...]:
    """The relation-gradient planes of neighbor_sum for train edges h -r-> t."""
    if not rotation:
        return (g[t] - g[h],)
    # e_h ∘ r lands on t: g[t] ∘ ē_h; e_t ∘ r̄ lands on h: conj(g[h] ∘ ē_t)
    return tuple(np.add(into_t, into_h, out=into_t) for into_t, into_h in zip(
        _planar_product(*_planes(g, t), *_planes(ent, h), conj=True),
        _planar_product(*_planes(ent, t), *_planes(g, h), conj=True)))


def _neighbor_walks(entities: Tensor, relations: Tensor, index, rotation: bool):
    """Check the operands; return their neighbor sum and its backward closure."""
    if relations.cols != entities.cols:
        raise ShapeError(f"neighbor_sum: relation width {relations.cols} != "
                         f"entity width {entities.cols}")
    if (index.num_entities, index.num_relations) != (entities.rows, relations.rows):
        raise ShapeError(f"neighbor_sum: index covers {index.num_entities} entities and "
                         f"{index.num_relations} relations, got {entities.rows} and "
                         f"{relations.rows} rows")
    if rotation:
        _split(entities, "neighbor_sum")
    ent, rel = entities.values, relations.values
    both = np.concatenate([rel, rel])  # rows R + r: r̄ under rotation, −r under translation
    both[len(rel):, rel.shape[1] // 2 if rotation else 0:] *= -1.0

    def composed(values: np.ndarray):  # the planes of values[u] ∘ ρ over by_dst's u -ρ-> v
        return lambda src, rels: _composed(values, src, both, rels, rotation)

    def backward_fn(g):
        if entities.requires_grad:
            # every edge's reverse is in the walk, so the adjoint is the same pass over g
            planes_of = composed(g) if rotation else lambda src, rels: (g[src],)
            _accumulate(entities, _walk_sum(index.by_dst, g.shape, planes_of))
        if relations.requires_grad:
            _accumulate(relations, _walk_sum(
                index.by_rel, rel.shape, lambda h, t: _relation_planes(g, ent, h, t, rotation)))

    return _walk_sum(index.by_dst, ent.shape, composed(ent)), backward_fn


def neighbor_sum(entities: Tensor, relations: Tensor, index, rotation: bool) -> Tensor:
    """Per entity, the sum of its neighbors' estimates of it over both directions.

    Entity i receives entities[h] ∘ r for every train edge h -r-> i and
    entities[t] ∘ r̄ for every edge i -r-> t (translation: + r and − r);
    ``index`` is a ``kg.NeighborhoodIndex``, whose ``by_dst`` walk holds
    both, the reverse under relation id R + r, and fixes the chunks and so
    the order of every sum.  The value and both gradients are sums over a
    walk, ``by_dst`` or ``by_rel``, taken by one chunk loop: chunks are
    composed as re and im planes and summed with ``np.add.reduceat``, so no
    edge x d array is kept and the backward recomputes each chunk.
    """
    value, backward_fn = _neighbor_walks(entities, relations, index, rotation)
    return _make_result(value, (entities, relations), "neighbor_sum", backward_fn)


def graph_conv(entities: Tensor, relations: Tensor, index, w0: Tensor, rotation: bool) -> Tensor:
    """One layer's entities, relu(D⁻¹ · neighbor_sum · W0 + entities), as one record.

    D counts the edges that end at each entity.  The float ops, their order and
    finiteness checks are those of the chain neighbor_sum, 1/degree hadamard,
    matmul, add, relu; but it keeps only the output and, until W0's gradient is
    taken, the scaled sums, and adds into ``entities`` in the chain's order:
    masked gradient, neighbor adjoint.
    """
    if w0.shape != (entities.cols,) * 2:
        raise ShapeError(f"graph_conv: w0 is {w0.shape}, expected {(entities.cols,) * 2}")
    scaled, neighbor_backward = _neighbor_walks(entities, relations, index, rotation)
    _check_finite(scaled, "neighbor_sum")
    inv_degree = np.where(index.degree > 0, 1.0 / np.maximum(index.degree, 1), 0.0)[:, None]
    scaled *= inv_degree
    out = _check_finite(scaled, "hadamard") @ w0.values
    _check_finite(out, "matmul")
    out += entities.values
    np.maximum(_check_finite(out, "add"), 0.0, out=out)

    def backward_fn(g):
        nonlocal scaled
        g *= out > 0  # relu's mask, read off its output; 0 at exactly 0
        _accumulate(entities, g, fresh=True)
        _accumulate(w0, scaled.T @ g)
        scaled = None
        g = g @ w0.values.T
        g *= inv_degree
        neighbor_backward(g)

    return _make_result(out, (entities, relations, w0), "graph_conv", backward_fn)


def _scatter_add(out: np.ndarray, ids: np.ndarray, planes) -> None:
    """out[ids[i]] += row i of ``planes`` side by side, in row order, as np.add.at does.

    It runs np.add.at on the flat view of ``out``, which takes a quarter of
    the time of the row-wise form and adds in the same order.
    """
    cols = out.shape[1]
    flat = out.reshape(-1)
    assert np.shares_memory(flat, out)  # gradients are allocated C-contiguous
    width = cols // len(planes)
    for p, rows in enumerate(planes):
        np.add.at(flat, (ids[:, None] * cols + p * width + np.arange(width)).ravel(),
                  rows.ravel())


def triple_scores(entities: Tensor, relations: Tensor, heads, rels, tails,
                  rotation: bool, norm: str) -> Tensor:
    """Scores −‖e_h ∘ r − e_t‖ of id triples as a (B, 1) column.

    ``norm`` is "l1" or "l2"; under translation the composition is e_h + r.
    The rows are walked in runs of ``kg.CHUNK``, so no B x d array is kept: the
    backward recomputes each run's difference and scatters its gradients
    straight into the entity and relation gradients.  Products are planar;
    norms sum whole split-half rows, as per-plane sums round differently.
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}, expected one of {NORMS}")
    if relations.cols != entities.cols:
        raise ShapeError(f"triple_scores: relation width {relations.cols} != "
                         f"entity width {entities.cols}")
    if rotation:
        _split(entities, "triple_scores")
    h, t = (_row_ids(ids, entities.rows, "triple_scores") for ids in (heads, tails))
    r = _row_ids(rels, relations.rows, "triple_scores")
    if not h.size == r.size == t.size:
        raise ShapeError(f"triple_scores: {h.size} heads, {r.size} relations, {t.size} tails")
    ent, rel = entities.values, relations.values
    runs = [slice(s, s + kg.CHUNK) for s in range(0, h.size, kg.CHUNK)]

    def diff(run: slice) -> np.ndarray:
        rows = ent[t[run]]
        composed = _composed(ent, h[run], rel, r[run], rotation)
        for block, plane in zip(_planes(rows) if rotation else (rows,), composed):
            np.subtract(plane, block, out=block)
        return rows

    norms = np.empty((h.size, 1))
    for run in runs:
        d = diff(run)
        if norm == "l1":
            np.abs(d, out=d)
            norms[run, 0] = d.sum(axis=1)
        else:
            np.square(d, out=d)
            norms[run, 0] = np.sqrt(d.sum(axis=1))

    def backward_fn(g):
        g = -g  # the score is the negated norm
        if norm == "l2":
            g /= np.where(norms > 0, norms, 1.0)
        for run in runs:
            d = diff(run)
            gd = np.sign(d) if norm == "l1" else d
            gd *= g[run]  # the gradient of the difference
            if entities.requires_grad:
                _scatter_add(_grad_of(entities), t[run], (-gd,))
                _scatter_add(_grad_of(entities), h[run],
                             _planar_product(*_planes(gd), *_planes(rel, r[run]), conj=True)
                             if rotation else (gd,))
            if relations.requires_grad:
                _scatter_add(_grad_of(relations), r[run],
                             _planar_product(*_planes(gd), *_planes(ent, h[run]), conj=True)
                             if rotation else (gd,))

    return _make_result(-norms, (entities, relations), "triple_scores", backward_fn)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.values, 0.0)

    def backward_fn(g):
        g *= out > 0  # the mask, read off the output; gradient is 0 at exactly 0
        _accumulate(a, g, fresh=True)

    return _make_result(out, (a,), "relu", backward_fn)


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) without underflow for very negative x."""
    x = a.values
    out = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))

    def backward_fn(g):
        # slope sigmoid(-x) = 1 / (1 + e^x), split by sign so exp never overflows
        slope = np.empty_like(x)
        neg = x <= 0
        slope[neg] = 1.0 / (1.0 + np.exp(x[neg]))
        ex = np.exp(-x[~neg])
        slope[~neg] = ex / (1.0 + ex)
        _accumulate(a, g * slope)

    return _make_result(out, (a,), "log_sigmoid", backward_fn)


def row_l1_norm(a: Tensor) -> Tensor:
    out = np.abs(a.values).sum(axis=1, keepdims=True)

    def backward_fn(g):
        _accumulate(a, g * np.sign(a.values))  # subgradient 0 at 0

    return _make_result(out, (a,), "row_l1_norm", backward_fn)


def row_l2_norm(a: Tensor) -> Tensor:
    sq = np.square(a.values)
    out = np.sqrt(sq.sum(axis=1, keepdims=True))

    def backward_fn(g):
        safe = np.where(out > 0, out, 1.0)
        _accumulate(a, g * (a.values / safe))

    return _make_result(out, (a,), "row_l2_norm", backward_fn)


def phase_embedding(theta: Tensor) -> Tensor:
    """Materialize unit-modulus complex rows [cos θ | sin θ] from phases."""
    c, s = np.cos(theta.values), np.sin(theta.values)
    out = np.concatenate([c, s], axis=1)

    def backward_fn(g):
        k = theta.cols
        _accumulate(theta, -s * g[:, :k] + c * g[:, k:])

    return _make_result(out, (theta,), "phase_embedding", backward_fn)


def complex_unit_normalize(a: Tensor) -> Tensor:
    """Rescale every complex coordinate to unit modulus.

    Coordinates with modulus < RESET_MODULUS become 1+0i and pass no
    gradient (constant branch).
    """
    k = _split(a, "complex_unit_normalize")
    x, y = a.values[:, :k], a.values[:, k:]
    mod = np.hypot(x, y)
    reset = mod < RESET_MODULUS
    safe = np.where(reset, 1.0, mod)
    u = np.where(reset, 1.0, x / safe)
    v = np.where(reset, 0.0, y / safe)
    out = np.concatenate([u, v], axis=1)

    def backward_fn(g):
        gu, gv = g[:, :k], g[:, k:]
        # d(x/s)/dx = y^2/s^3, d(x/s)/dy = -xy/s^3 and symmetrically for y/s
        common = (v * gu - u * gv) / safe
        gx = np.where(reset, 0.0, v * common)
        gy = np.where(reset, 0.0, -u * common)
        _accumulate(a, np.concatenate([gx, gy], axis=1))

    return _make_result(out, (a,), "complex_unit_normalize", backward_fn)


def sum_all(a: Tensor) -> Tensor:
    out = np.array([[a.values.sum()]])

    def backward_fn(g):
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make_result(out, (a,), "sum_all", backward_fn)


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; valid once per tape."""
    if loss.shape != (1, 1):
        raise ShapeError(f"backward needs a 1x1 loss, got {loss.shape}")
    if tape._consumed:
        raise StateError("backward already ran on this tape")
    # the loss is normally the last record, so this scan stops at once
    if not any(out is loss for out, _ in reversed(tape.records)):
        raise StateError("loss is not recorded on this tape")
    tape._consumed = True
    _accumulate(loss, np.ones((1, 1)))
    for out, backward_fn in reversed(tape.records):
        if out.grad is not None:
            backward_fn(out.grad)
