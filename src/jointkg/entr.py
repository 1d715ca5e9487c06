"""Entropy-budgeted seed enlargement and cross-KG triple transfer.

Each epoch the alignment matrix's row-softmax entropy is compared against the
entropy of the untrained model; the relative drop sets how many high-
similarity pairs may join the seed set. Triples whose endpoints are both
covered by the current seed mapping are copied into the paired KG, in both
directions, and copies whose supporting alignment has since disappeared are
pruned again.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import AlignmentMatrix, greedy_one_to_one
from .errors import EnTrError
from .kgdata import ENLARGED, GIVEN, TRANSFERRED, MultiKg, SeedSet

TripleKey = tuple[int, int, int]


@dataclass
class EntropyState:
    """Pre-training entropy (frozen) and the latest entropy, per KG pair."""

    h_tilde: dict[tuple[str, str], float] = field(default_factory=dict)
    h_current: dict[tuple[str, str], float] = field(default_factory=dict)


def matrix_entropy(matrix: AlignmentMatrix | np.ndarray) -> float:
    """Shannon entropy (natural log) of the row softmax, summed over rows; a
    probability that underflows to 0 adds 0, the limit of p log p."""
    values = matrix.values if isinstance(matrix, AlignmentMatrix) else np.asarray(matrix)
    if values.ndim != 2 or values.size == 0:
        raise EnTrError(f"entropy needs a non-empty matrix, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise EnTrError("entropy requires a finite matrix")
    p = values - values.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    p_log_p = np.log(p, out=np.zeros_like(p), where=p > 0)
    p_log_p *= p
    return float(-p_log_p.sum())


def seed_budget(h_tilde: float, h_current: float, beta: float,
                e_count: int, e_star_count: int) -> int:
    """Number of pairs the seed set may grow by this epoch (floored, >= 0)."""
    if h_tilde <= 0.0:
        raise EnTrError("degenerate pre-training entropy")
    if not 0.0 <= beta <= 1.0:
        raise EnTrError(f"beta must lie in [0, 1], got {beta}")
    budget = beta * (h_tilde - h_current) / h_tilde * min(e_count, e_star_count)
    return max(0, int(np.floor(budget)))


def enlarge_seeds(matrix: AlignmentMatrix, q: int, seed_set: SeedSet) -> SeedSet:
    """Given train pairs plus up to q fresh pairs picked greedily by
    descending similarity (greedy_one_to_one), skipping any entity already
    claimed. Previously enlarged pairs are discarded and recomputed."""
    if q < 0:
        raise EnTrError(f"negative enlargement budget {q}")
    given = seed_set.given_pairs()
    fresh = greedy_one_to_one(matrix.values, q, [a for a, _ in given], [b for _, b in given])
    return SeedSet(seed_set.kg_pair, given + fresh, [GIVEN] * len(given) + [ENLARGED] * len(fresh))


def _derive(keys: list[TripleKey], mapping: dict[int, int]) -> list[TripleKey]:
    """Images of the triples whose endpoints are both in the mapping."""
    images = []
    for h, r, t in keys:
        head_image = mapping.get(h)
        tail_image = mapping.get(t)
        if head_image is not None and tail_image is not None:
            images.append((head_image, r, tail_image))
    return images


def transfer_triples(seed_set: SeedSet, multikg: MultiKg, epoch: int = 0) -> int:
    """Copy triples along the pair's seed mapping, in both directions, until
    no new triple appears; returns the number of triples added."""
    kg_a = multikg.by_id[seed_set.kg_pair[0]]
    kg_b = multikg.by_id[seed_set.kg_pair[1]]
    forward = seed_set.mapping()
    inverse = seed_set.inverse_mapping()
    total = 0
    while True:
        added = 0
        for key in _derive([t.key for t in kg_a.triples], forward):
            if kg_b.add_triple(*key, origin=TRANSFERRED, epoch=epoch):
                added += 1
        for key in _derive([t.key for t in kg_b.triples], inverse):
            if kg_a.add_triple(*key, origin=TRANSFERRED, epoch=epoch):
                added += 1
        total += added
        if added == 0:
            return total


def prune_stale_transfers(multikg: MultiKg,
                          seed_sets: dict[tuple[str, str], SeedSet]) -> int:
    """Remove transferred triples no longer derivable from loaded triples
    under the current seed mappings; returns the number removed.

    Derivability is judged against the transfer closure recomputed from
    loaded triples only, so chains and mutually-supporting copies whose
    original support vanished are dropped as well.
    """
    closure: dict[str, set[TripleKey]] = {
        kg.id: {t.key for t in kg.loaded_triples()} for kg in multikg.kgs
    }
    while True:
        added = 0
        for pair in sorted(seed_sets):
            seed_set = seed_sets[pair]
            directions = (
                (pair[0], pair[1], seed_set.mapping()),
                (pair[1], pair[0], seed_set.inverse_mapping()),
            )
            for source, target, mapping in directions:
                for key in _derive(sorted(closure[source]), mapping):
                    if key not in closure[target]:
                        closure[target].add(key)
                        added += 1
        if added == 0:
            break

    removed = 0
    for kg in multikg.kgs:
        stale = {t.key for t in kg.transferred_triples()} - closure[kg.id]
        removed += kg.remove_transferred(stale)
    return removed
