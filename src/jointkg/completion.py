"""Completion component: translation scoring summed over encoder layers, the
margin ranking loss over corrupted triples, and the seed-pair constraint that
pulls aligned entities' completion embeddings together."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import diff
from .diff import Tensor
from .errors import CompletionError
from .kgdata import triple_keys
from .rgnn import LayerEmbeddings

_RETRY_LIMIT = 100


class NegativeBatch(NamedTuple):
    """Corrupted triples, each tagged with the index of its positive."""

    heads: np.ndarray
    relations: np.ndarray
    tails: np.ndarray
    positive_index: np.ndarray


def score_all_tails(heads: np.ndarray, relations: np.ndarray, entity_values: list[np.ndarray],
                    relation_values: list[np.ndarray], offset: int, count: int) -> np.ndarray:
    """Plain-array total scores, one row per query (heads[i], relations[i])
    and one column per candidate tail in one KG's id block
    [offset, offset + count); used by ranking evaluation.

    The query rows run in `diff.pooled_rows` ranges, one thread per core
    made for this call, with at most `diff.BLOCK_BYTES` bytes of distances
    at once. Each slice of a range gathers its head + relation rows, then
    layer by layer in order subtracts their L1 distances to every
    candidate, which `cdist` writes into the range's buffer, from its own
    rows of the total. `cdist` adds |a_k - b_k| from k = 0 in order, and
    each entry reads only its own query row, so the scores are the same
    bits for any slicing, on any thread and at any core count.
    """
    # imported here, not at module top, so `import jointkg` stays cheap
    from scipy.spatial.distance import cdist

    heads = np.asarray(heads, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    total = np.zeros((heads.size, count))

    def sweep(rows: slice, distances: np.ndarray) -> None:
        for ek, rk in zip(entity_values, relation_values):
            translated = ek[heads[rows]] + rk[relations[rows]]
            cdist(translated, ek[offset:offset + count], "cityblock", out=distances)
            total[rows] -= distances

    diff.pooled_rows(heads.size, count, sweep)
    return total


def ranking_loss(positives: tuple[np.ndarray, np.ndarray, np.ndarray],
                 negatives: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                 gamma_c: float, layers: LayerEmbeddings) -> Tensor:
    """Hinge gamma_c - f_k(pos) + f_k(neg), averaged over pos-neg pairs and
    summed over layers. `negatives` carries a positive-index column pairing
    each corruption with its source triple. Each layer scores positives and
    negatives in one `translation_l1` call."""
    pos_h, pos_r, pos_t = positives
    neg_h, neg_r, neg_t, pair_of = negatives
    heads = np.concatenate([pos_h, neg_h])
    relations = np.concatenate([pos_r, neg_r])
    tails = np.concatenate([pos_t, neg_t])
    negative_rows = len(pos_h) + np.arange(len(neg_h))
    total = None
    for k in range(layers.layer_count + 1):
        f = diff.translation_l1(layers.entities[k], layers.relations[k], heads, relations, tails)
        hinge = diff.relu(diff.add(diff.sub(diff.tensor(gamma_c), diff.gather_rows(f, pair_of)),
                                   diff.gather_rows(f, negative_rows)))
        layer_loss = diff.mean_all(hinge)
        total = layer_loss if total is None else diff.add(total, layer_loss)
    return total


def alignment_constraint_loss(pairs: np.ndarray, layers: LayerEmbeddings) -> Tensor:
    """Cosine distance between seed-aligned completion embeddings, summed over
    pairs and layers."""
    if len(pairs) == 0:
        return diff.tensor(np.zeros(()))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    left, right = pairs[:, 0], pairs[:, 1]
    total = None
    for k in range(layers.layer_count + 1):
        layer_loss = diff.sum_all(diff.cosine_distance(layers.entities[k], left, right))
        total = layer_loss if total is None else diff.add(total, layer_loss)
    return total


def completion_loss(ranking: Tensor, constraint: Tensor) -> Tensor:
    """Unweighted sum of the two completion objectives."""
    return diff.add(ranking, constraint)


def sample_negatives(positives: np.ndarray, entity_count: int, known: np.ndarray, m: int,
                     rng: np.random.Generator) -> NegativeBatch:
    """Corrupt head or tail of each positive (head, relation, tail) row, m
    times, avoiding known training triples.

    `known` is the sorted array of `triple_keys` (under `entity_count`) of
    the triples no corruption may reproduce; it may hold triples of any
    relation. Corruptions are drawn in vectorized rejection rounds; a draw
    is rejected when it leaves the triple unchanged or reproduces a known
    triple. Each round's draws depend on the batch size, so appending a
    positive changes the corruptions of all the others; a caller that needs
    pairing must give appended positives their own stream.
    """
    if m < 1:
        raise CompletionError(f"need at least one negative per positive, got {m}")
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    pair_of = np.repeat(np.arange(len(pos), dtype=np.int64), m)
    out = pos[pair_of]

    pending = np.arange(out.shape[0], dtype=np.int64)
    for attempt in range(_RETRY_LIMIT):
        if pending.size == 0:
            break
        column = np.where(rng.integers(2, size=pending.size) == 1, 0, 2)  # 0: corrupt head
        replacement = rng.integers(entity_count, size=pending.size)
        drawn = out[pending]
        slot = np.arange(pending.size)
        changed = drawn[slot, column] != replacement
        drawn[slot, column] = replacement
        keys = triple_keys(drawn, entity_count)
        hits = np.minimum(np.searchsorted(known, keys), max(len(known) - 1, 0))
        is_known = (known[hits] == keys) if len(known) else np.zeros_like(changed)
        accept = changed & ~is_known
        out[pending[accept]] = drawn[accept]
        pending = pending[~accept]
    if pending.size:
        raise CompletionError(
            "negative sampling retry budget exhausted; KG too small to corrupt")
    return NegativeBatch(out[:, 0], out[:, 1], out[:, 2], pair_of)
