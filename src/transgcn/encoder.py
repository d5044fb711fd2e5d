"""Stacked graph convolution layers over homogenized neighborhoods.

Each layer turns every train edge into two directed estimates (incoming and
outgoing), sums the estimates per entity, scales by 1/degree, applies the
shared projection W0, and updates entities as relu(message + previous).
Relations evolve through their own projection W1; under rotation the rows
are renormalized to unit modulus afterwards.  Zero-degree entities receive
a zero message.  With no layers, encoding returns the layer-0 embeddings
(materializing rotation phases) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .kg import NeighborhoodIndex
from .transform import Assumption, estimate_from_incoming, estimate_from_outgoing


@dataclass
class LayerParams:
    """Square per-layer projections, stored (d_in, d_out) and applied x @ W."""

    w0: Tensor
    w1: Tensor


@dataclass
class ModelState:
    """All trainable parameters of one model.

    ``relation_params`` holds relation vectors under translation and phase
    angles (width d/2) under rotation; materialized rows always have the
    entity width d.
    """

    assumption: Assumption
    entity_embed: Tensor
    relation_params: Tensor
    layers: list[LayerParams]

    @classmethod
    def from_arrays(cls, assumption: Assumption, arrays) -> "ModelState":
        """Named trainable leaves from arrays in ``parameters()`` order.

        That is entities, relations, then w0 and w1 for each layer; the
        arrays are wrapped without copying.
        """
        leaves = [ad.tensor(values, requires_grad=True) for values in arrays]
        layers = [LayerParams(w0, w1) for w0, w1 in zip(leaves[2::2], leaves[3::2])]
        state = cls(assumption, leaves[0], leaves[1], layers)
        for name, leaf in state.parameters().items():
            leaf.name = name
        return state

    @property
    def dim(self) -> int:
        return self.entity_embed.cols

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def parameters(self) -> dict[str, Tensor]:
        """Named leaves in checkpoint order."""
        named = {"entity_embed": self.entity_embed, "relation_params": self.relation_params}
        for i, layer in enumerate(self.layers):
            named[f"w0_{i}"] = layer.w0
            named[f"w1_{i}"] = layer.w1
        return named

    def validate(self, index: NeighborhoodIndex | None = None) -> None:
        d = self.dim
        if self.assumption is Assumption.ROTATION:
            if d % 2:
                raise ShapeError(f"rotation needs an even entity width, got {d}")
            if self.relation_params.cols != d // 2:
                raise ShapeError(
                    f"rotation phases must have width {d // 2}, got {self.relation_params.cols}"
                )
        elif self.relation_params.cols != d:
            raise ShapeError(
                f"relation width {self.relation_params.cols} != entity width {d}"
            )
        for i, layer in enumerate(self.layers):
            for tag, w in (("w0", layer.w0), ("w1", layer.w1)):
                if w.shape != (d, d):
                    raise ShapeError(f"layer {i} {tag} must be {d}x{d}, got {w.shape}")
        if index is not None and index.num_entities != self.entity_embed.rows:
            raise ShapeError(
                f"index covers {index.num_entities} entities, "
                f"state has {self.entity_embed.rows}"
            )


def materialize_relations(state: ModelState) -> Tensor:
    """Layer-0 relation rows: stored vectors, or unit rows built from phases."""
    if state.assumption is Assumption.ROTATION:
        return ad.phase_embedding(state.relation_params)
    return state.relation_params


def aggregate_messages(
    entities: Tensor,
    relations: Tensor,
    index: NeighborhoodIndex,
    w0: Tensor,
    assumption: Assumption,
) -> Tensor:
    """Degree-normalized projected sum of neighborhood estimates per entity."""
    heads = ad.gather_rows(entities, index.heads)
    rels = ad.gather_rows(relations, index.rels)
    tails = ad.gather_rows(entities, index.tails)
    n = index.num_entities
    est_in = estimate_from_incoming(heads, rels, assumption)  # lands on tails
    est_out = estimate_from_outgoing(tails, rels, assumption)  # lands on heads
    sums = ad.add(
        ad.segment_sum(est_in, index.tails, n), ad.segment_sum(est_out, index.heads, n)
    )
    inv_degree = np.where(index.degree > 0, 1.0 / np.maximum(index.degree, 1), 0.0)
    # broadcast view costs no memory; zero rows stay zero through the matmul
    scaled = ad.hadamard(sums, ad.tensor(np.broadcast_to(inv_degree[:, None], sums.shape)))
    return ad.matmul(scaled, w0)


def update_relations(relations: Tensor, w1: Tensor, assumption: Assumption) -> Tensor:
    out = ad.relu(ad.matmul(relations, w1))
    if assumption is Assumption.ROTATION:
        out = ad.complex_unit_normalize(out)
    return out


def encode(state: ModelState, index: NeighborhoodIndex) -> tuple[Tensor, Tensor]:
    """Run all layers; returns final (entities, relations) tensors."""
    state.validate(index)
    entities = state.entity_embed
    relations = materialize_relations(state)
    for layer in state.layers:
        messages = aggregate_messages(entities, relations, index, layer.w0, state.assumption)
        entities = ad.relu(ad.add(messages, entities))
        relations = update_relations(relations, layer.w1, state.assumption)
    return entities, relations


def encode_arrays(state: ModelState, index: NeighborhoodIndex) -> tuple[np.ndarray, np.ndarray]:
    """Frozen forward pass for evaluation; call outside any tape."""
    entities, relations = encode(state, index)
    return entities.values, relations.values
