"""Relation-aware GNN encoder.

One encoder instance carries K message-passing layers over the union of all
KGs' edges (there are never cross-KG edges). Messages subtract a transformed
relation embedding from the neighbor embedding, attention logits are a linear
map of center||message, and each entity update passes the attended sum plus
the entity's own embedding through a linear + tanh transform. The attention
and the attended sum are one `diff.neighbor_attention` node per layer, which
projects at the nodes and aggregates with sparse products over the
center-sorted edges (one `diff.EdgeList`, checked once, when `build_edges`
makes it), so no per-edge vector table is ever built. The same
architecture is instantiated twice, once per model component; an optional
fusion hook rewrites the entity/relation tables at every layer before they
feed the next one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diff
from .diff import EdgeList, Mlp, ParameterBlock, Tensor
from .kgdata import MultiKg

FusionHook = Callable[[Tensor, Tensor, int], tuple[Tensor, Tensor]]


def build_edges(multikg: MultiKg) -> EdgeList:
    """Every KG's N(e) rows (Kg.neighbor_index) in one id space, as one
    `EdgeList`, checked once, that serves every encode until the triples change.

    Each KG's rows are sorted by (center, neighbor, relation) and KGs occupy
    consecutive id blocks, so the stacked rows stay sorted, which fixes the
    order of every reduction over them.
    """
    rows = [np.empty((0, 3), dtype=np.int64)]
    for kg in multikg.kgs:
        offset = multikg.entity_offset(kg.id)
        rows.append(kg.neighbor_index() + [offset, offset, 0])
    centers, neighbors, relations = np.concatenate(rows).T
    return EdgeList(centers, neighbors, relations, num_entities=multikg.total_entities)


@dataclass
class LayerEmbeddings:
    """Entity and relation tables for layers 0..K of one encoder."""

    entities: list[Tensor]
    relations: list[Tensor]

    @property
    def layer_count(self) -> int:
        return len(self.entities) - 1

    def entity_values(self) -> list[np.ndarray]:
        return [e.values for e in self.entities]

    def relation_values(self) -> list[np.ndarray]:
        return [r.values for r in self.relations]


class EncoderParams(ParameterBlock):
    """All trainable state of one encoder.

    Per transition k (0..K-1): a two-layer composition MLP and relation MLP,
    a single-layer attention map (2n -> 1), and the linear+tanh output
    transform. `relation_aware=False` runs the attention on zeros instead of
    comp and att, which gives uniform weights over the bare neighbor vectors.
    `create` sets this layout, and the `diff` ops check shapes at the forward.
    """

    def __init__(self, layer_count: int, dim: int, entity0: Tensor, relation0: Tensor,
                 comp: list[Mlp], rel: list[Mlp], att: list[Mlp], g: list[Mlp],
                 relation_aware: bool = True):
        self.layer_count = layer_count
        self.dim = dim
        self.entity0 = entity0
        self.relation0 = relation0
        self.comp = comp
        self.rel = rel
        self.att = att
        self.g = g
        self.relation_aware = relation_aware

    @classmethod
    def create(cls, layer_count: int, dim: int, entity_count: int, relation_count: int,
               rng: np.random.Generator, relation_aware: bool = True) -> "EncoderParams":
        """Draw every table from `rng`, layer 0 uniform in +-1/sqrt(dim);
        `JointModel` writes surface-information vectors after all draws."""
        bound = 1.0 / np.sqrt(dim)
        e0 = rng.uniform(-bound, bound, size=(entity_count, dim))
        r0 = rng.uniform(-bound, bound, size=(relation_count, dim))
        comp, rel, att, g = [], [], [], []
        for _ in range(layer_count):
            comp.append(Mlp.create([dim, dim, dim], ("leakyrelu", "identity"), rng))
            rel.append(Mlp.create([dim, dim, dim], ("leakyrelu", "identity"), rng))
            att.append(Mlp.create([2 * dim, 1], ("identity",), rng))
            g.append(Mlp.create([dim, dim], ("tanh",), rng))
        return cls(layer_count, dim, diff.param(e0), diff.param(r0), comp, rel, att, g,
                   relation_aware=relation_aware)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        named = [(f"{prefix}/entity0", self.entity0), (f"{prefix}/relation0", self.relation0)]
        for k in range(self.layer_count):
            for part in ("comp", "rel", "att", "g"):
                named += getattr(self, part)[k].named_parameters(f"{prefix}/layer{k}/{part}")
        return named


def layer_forward(edges: EdgeList, entity_k: Tensor, relation_k: Tensor,
                  params: EncoderParams, layer: int) -> tuple[Tensor, Tensor]:
    """One message-passing transition: tables at layer k -> layer k+1.

    Without relation awareness the attention runs on zero constants, which
    weigh each center's edges 1/deg over the bare neighbor rows. Without
    edges the attended sum is zero, so this is g(e) bitwise, and the comp
    and attention parameters get zero gradients: Adam leaves them be."""
    if params.relation_aware:
        att = params.att[layer]
        attention = (params.comp[layer](relation_k), att.weights[0], att.biases[0])
    else:
        attention = (diff.tensor(np.zeros(relation_k.values.shape)),
                     diff.tensor(np.zeros((2 * params.dim, 1))), diff.tensor(np.zeros(1)))
    aggregated = diff.neighbor_attention(entity_k, *attention, edges)
    entity_next = params.g[layer](diff.add(aggregated, entity_k))
    relation_next = params.rel[layer](relation_k)
    return entity_next, relation_next


def encode(edges: EdgeList, params: EncoderParams,
           fusion_hook: FusionHook | None = None) -> LayerEmbeddings:
    """Run all K layers; the hook rewrites each layer's tables before they
    feed the next layer (and before they are recorded)."""
    entity, relation = params.entity0, params.relation0
    if fusion_hook is not None:
        entity, relation = fusion_hook(entity, relation, 0)
    entities, relations = [entity], [relation]
    for k in range(params.layer_count):
        entity, relation = layer_forward(edges, entity, relation, params, k)
        if fusion_hook is not None:
            entity, relation = fusion_hook(entity, relation, k + 1)
        entities.append(entity)
        relations.append(relation)
    return LayerEmbeddings(entities, relations)
