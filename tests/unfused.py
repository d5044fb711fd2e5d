"""Reference implementations that the fused autodiff ops are compared against.

``score`` and ``score_triples`` are the unfused op chain that
``autodiff.triple_scores`` fuses: forward values must be bit-identical and
gradients equal up to summation order.  ``aggregate_messages`` is the op
chain that ``autodiff.graph_conv`` fuses and ``adam_step`` the expression
form of ``trainer.adam_step``; both must give the same bits, so either can
be patched in for the package's own.  The chunk loops further down are
bit-for-bit references for ``neighbor_sum`` and ``triple_scores``;
``walk_keys`` reads each edge's key back off a ``kg.EdgeWalk`` plan.
"""

import numpy as np

import transgcn.autodiff as ad
import transgcn.kg as kg
from transgcn.encoder import Assumption


def score(h, r, t, assumption: Assumption, norm: str = "l1"):
    """Row-wise score -||compose(h, r) - t|| of gathered rows; shape (B, 1)."""
    if assumption is Assumption.ROTATION:
        composed = ad.complex_hadamard(h, r)
    else:
        composed = ad.add(h, r)
    diff = ad.sub(composed, t)
    if norm == "l1":
        dist = ad.row_l1_norm(diff)
    elif norm == "l2":
        dist = ad.row_l2_norm(diff)
    else:
        raise ValueError(f"unknown norm {norm!r}, expected 'l1' or 'l2'")
    return ad.scale(dist, -1.0)


def score_triples(entities, relations, heads, rels, tails, assumption: Assumption,
                  norm: str = "l1"):
    """``score`` of id triples through three gathers."""
    return score(ad.gather_rows(entities, heads), ad.gather_rows(relations, rels),
                 ad.gather_rows(entities, tails), assumption, norm)


def aggregate_messages(entities, relations, index, w0, assumption: Assumption):
    """The entity half of a layer as five tape ops: neighbor_sum, a broadcast
    1/degree hadamard, matmul, add and relu."""
    sums = ad.neighbor_sum(entities, relations, index, assumption is Assumption.ROTATION)
    inv_degree = np.where(index.degree > 0, 1.0 / np.maximum(index.degree, 1), 0.0)
    # broadcast view costs no memory; zero rows stay zero through the matmul
    scaled = ad.hadamard(sums, ad.tensor(np.broadcast_to(inv_degree[:, None], sums.shape)))
    return ad.relu(ad.add(ad.matmul(scaled, w0), entities))


def adam_step(param, grad, moments, lr, beta1=0.9, beta2=0.999, eps=1e-8, t=1):
    """One bias-corrected Adam update as whole-array expressions, stored into
    the given m and v; returns the new parameter."""
    m, v = moments
    m[...] = beta1 * m + (1.0 - beta1) * grad
    v[...] = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps)


# Split-half chunk loops that ``autodiff.neighbor_sum`` and
# ``autodiff.triple_scores`` must match bit for bit.  They build their own
# edge orders from the train rows and form whole split-half products, where
# the fused ops walk the plan of ``kg.build_index`` and form re and im planes.
# The chunk size is read when called, so a test that patches ``kg.CHUNK``
# patches both sides.

def complex_product(a, b):
    """Coordinate-wise complex product of split-half [re | im] rows."""
    k = a.shape[-1] // 2
    ar, ai = a[..., :k], a[..., k:]
    br, bi = b[..., :k], b[..., k:]
    return np.concatenate([ar * br - ai * bi, ar * bi + ai * br], axis=-1)


def _conjugated(a):
    a[:, a.shape[1] // 2:] *= -1.0
    return a


def _compose(rows, r, rotation, inverse=False):
    if rotation:
        return complex_product(rows, _conjugated(r) if inverse else r)
    rows += r
    return rows


def _segment_add(out, keys, rows):
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    out[keys[starts]] += np.add.reduceat(rows, starts, axis=0)


def neighbor_pass(values, rel_rows, train, rotation):
    """The neighbor_sum forward (and, over g, its entity gradient).

    Each train edge h -r-> t is taken as h -r-> t and as t -(R + r)-> h,
    with relation row R + r the inverse of row r; the 2E directed edges are
    summed by destination in stable destination order.
    """
    chunk = kg.CHUNK
    heads, rels, tails = train.T
    src, dst = np.concatenate([heads, tails]), np.concatenate([tails, heads])
    if rel_rows is not None:
        inverse = _conjugated(rel_rows.copy()) if rotation else -rel_rows
        rel_rows = np.concatenate([rel_rows, inverse])
        rel_ids = np.concatenate([rels, rels + len(inverse)])
    out = np.zeros_like(values)
    order = np.argsort(dst, kind="stable")
    for start in range(0, order.size, chunk):
        edges = order[start : start + chunk]
        rows = values[src[edges]]
        if rel_rows is not None:
            rows = _compose(rows, rel_rows[rel_ids[edges]], rotation)
        _segment_add(out, dst[edges], rows)
    return out


def relation_pass(g, ent, train, rotation, shape):
    """The neighbor_sum relation gradient over upstream gradient g."""
    chunk = kg.CHUNK
    heads, rels, tails = train.T
    out = np.zeros(shape)
    order = np.argsort(rels, kind="stable")
    for start in range(0, order.size, chunk):
        edges = order[start : start + chunk]
        h, t = heads[edges], tails[edges]
        if rotation:
            rows = _compose(g[t], ent[h], True, inverse=True)
            rows += _compose(ent[t], g[h], True, inverse=True)
        else:
            rows = g[t] - g[h]
        _segment_add(out, rels[edges], rows)
    return out


def neighbor_sum_and_gradients(ent, rel, train, rotation, g):
    """neighbor_sum's value and its entity and relation gradients under g,
    for the (E, 3) train rows ``train``."""
    return (neighbor_pass(ent, rel, train, rotation),
            neighbor_pass(g, rel if rotation else None, train, rotation),
            relation_pass(g, ent, train, rotation, rel.shape))


def walk_keys(walk):
    """The key of each edge of a ``kg.EdgeWalk``, in walk order, read off its chunks' runs."""
    return np.concatenate([np.zeros(0, np.int64)] + [
        np.repeat(keys, np.diff(starts, append=ids[0].size))
        for ids, starts, keys in walk.chunks()])


def triple_scores_and_gradients(ent, rel, h, r, t, rotation, norm, g):
    """triple_scores' (B, 1) value and its entity and relation gradients under g."""
    runs = [slice(s, s + kg.CHUNK) for s in range(0, h.size, kg.CHUNK)]

    def diff(run):
        rows = _compose(ent[h[run]], rel[r[run]], rotation)
        rows -= ent[t[run]]
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
    g = -g
    if norm == "l2":
        g /= np.where(norms > 0, norms, 1.0)
    ent_grad, rel_grad = np.zeros_like(ent), np.zeros_like(rel)
    for run in runs:
        d = diff(run)
        gd = np.sign(d) if norm == "l1" else d
        gd *= g[run]
        np.add.at(ent_grad, t[run], -gd)
        np.add.at(ent_grad, h[run], _compose(gd, rel[r[run]], True, inverse=True)
                  if rotation else gd)
        np.add.at(rel_grad, r[run], _compose(gd, ent[h[run]], True, inverse=True)
                  if rotation else gd)
    return -norms, ent_grad, rel_grad
