"""Stacked graph convolution layers over homogenized neighborhoods.

Each layer turns every train edge into two directed estimates (incoming and
outgoing), sums the estimates per entity, scales by 1/degree, applies the
shared projection W0, and updates entities as relu(message + previous).
That is one fused op, ``autodiff.graph_conv``, keeping only its output and,
until its backward, the scaled sums; its neighbor sum walks each edge both
ways in the chunks that ``kg.build_index`` plans, so no edge x d array is kept.
Relations evolve through their own projection W1; under rotation the rows
are renormalized to unit modulus afterwards.  Zero-degree entities receive
a zero message.  With no layers, encoding returns the layer-0 embeddings
(materializing rotation phases) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .kg import NeighborhoodIndex


class Assumption(Enum):
    """A neighbor's estimate: + r (inverse − r), or ∘ unit-modulus r (inverse ∘ r̄)."""

    TRANSLATION = "translation"
    ROTATION = "rotation"

    @classmethod
    def _missing_(cls, value):  # names are case-insensitive: "Rotation" is ROTATION
        return cls.__members__.get(str(value).upper())


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

    def __post_init__(self) -> None:
        self.assumption = Assumption(self.assumption)

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

    def parameters(self) -> dict[str, Tensor]:
        """Named leaves in checkpoint order."""
        named = {"entity_embed": self.entity_embed, "relation_params": self.relation_params}
        for i, layer in enumerate(self.layers):
            named[f"w0_{i}"] = layer.w0
            named[f"w1_{i}"] = layer.w1
        return named

    def validate(self, index: NeighborhoodIndex | None = None, expected=None) -> None:
        """Refuse parameter shapes other than ``expected`` (name -> shape).

        ``expected`` defaults to the ``parameter_shapes`` of the state itself.
        """
        if expected is None:
            expected = parameter_shapes(self.assumption, self.dim, len(self.layers),
                                        self.entity_embed.rows, self.relation_params.rows)
        shapes = {name: leaf.shape for name, leaf in self.parameters().items()}
        for name in dict.fromkeys([*expected, *shapes]):
            if shapes.get(name) != expected.get(name):
                raise ShapeError(f"{name} is {shapes.get(name)}, expected {expected.get(name)}")
        if index is not None and index.num_entities != self.entity_embed.rows:
            raise ShapeError(
                f"index covers {index.num_entities} entities, "
                f"state has {self.entity_embed.rows}"
            )


def parameter_shapes(
    assumption: Assumption, dim: int, layers: int, num_entities: int, num_relations: int
) -> dict[str, tuple[int, int]]:
    """Name -> shape of every parameter array, in ``ModelState.parameters()`` order.

    Entities are d wide; relations are d-wide vectors under translation and
    d/2 phase angles under rotation; each layer holds a d x d w0 and w1.
    """
    assumption = Assumption(assumption)
    if assumption is Assumption.ROTATION and dim % 2:
        raise ShapeError(f"rotation needs an even entity width, got {dim}")
    relation_width = dim // 2 if assumption is Assumption.ROTATION else dim
    shapes = {"entity_embed": (num_entities, dim),
              "relation_params": (num_relations, relation_width)}
    for i in range(layers):
        shapes.update({f"w0_{i}": (dim, dim), f"w1_{i}": (dim, dim)})
    return shapes


def materialize_relations(state: ModelState) -> Tensor:
    """Layer-0 relation rows: stored vectors, or unit rows built from phases."""
    if state.assumption is Assumption.ROTATION:
        return ad.phase_embedding(state.relation_params)
    return state.relation_params


def aggregate_messages(entities: Tensor, relations: Tensor, index: NeighborhoodIndex,
                       w0: Tensor, assumption: Assumption) -> Tensor:
    """The entity half of a layer: relu(D⁻¹ · neighborhood estimates · W0 + entities)."""
    rotation = Assumption(assumption) is Assumption.ROTATION
    return ad.graph_conv(entities, relations, index, w0, rotation)


def update_relations(relations: Tensor, w1: Tensor, assumption: Assumption) -> Tensor:
    out = ad.relu(ad.matmul(relations, w1))
    if Assumption(assumption) is Assumption.ROTATION:
        out = ad.complex_unit_normalize(out)
    return out


def encode(state: ModelState, index: NeighborhoodIndex) -> tuple[Tensor, Tensor]:
    """Run all layers; returns final (entities, relations) tensors."""
    state.validate(index)
    entities = state.entity_embed
    relations = materialize_relations(state)
    for layer in state.layers:
        entities = aggregate_messages(entities, relations, index, layer.w0, state.assumption)
        relations = update_relations(relations, layer.w1, state.assumption)
    return entities, relations


def encode_arrays(state: ModelState, index: NeighborhoodIndex) -> tuple[np.ndarray, np.ndarray]:
    """Frozen forward pass for evaluation; call outside any tape."""
    entities, relations = encode(state, index)
    return entities.values, relations.values
