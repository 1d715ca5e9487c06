"""Entropy-budgeted seed enlargement and cross-KG triple transfer.

Each epoch the alignment matrix's row-softmax entropy is compared against the
entropy of the untrained model; the relative drop sets how many high-
similarity pairs may join the seed set. Triples whose endpoints are both
covered by the current seed mapping are copied into the paired KG, in both
directions, and copies whose supporting alignment has since disappeared are
pruned again.

Entropies read cosines in `alignment.cosine_rows` blocks; greedy enlargement
alone builds a whole (source x target) matrix. Seed pairs are `SeedSet.pairs`
rows, and transfers land on each `Kg` through `set_transferred`.
"""
from __future__ import annotations

import numpy as np

from . import diff
from .alignment import cosine_rows, greedy_one_to_one
from .errors import EnTrError
from .kgdata import ENLARGED, GIVEN, MultiKg, SeedSet, triple_keys


def matrix_entropy(matrix: np.ndarray, target_finals: np.ndarray | None = None) -> float:
    """Shannon entropy (natural log) of the row softmax, summed over rows.

    With s = row - max(row) and Z = sum_j e^{s_j}, a row gives
    log Z - sum_j e^{s_j} s_j / Z; an e^{s_j} that underflows to 0 adds 0,
    the limit of p log p. With `target_finals`, `matrix` is the source finals
    and the matrix `build_alignment_matrix(matrix, target_finals)`, taken in
    its `alignment.cosine_rows` blocks, not whole. A row block and its two
    softmax tables take at most `diff.BLOCK_BYTES`; the rows fill one vector,
    whose single flat sum is the entropy, so blocking moves no bit."""
    values = np.asarray(matrix)
    shape = values.shape if target_finals is None else (len(values), len(target_finals))
    if len(shape) != 2 or 0 in shape:
        raise EnTrError(f"entropy needs a non-empty matrix, got shape {shape}")
    if target_finals is not None:  # before `cosine_rows` divides an inf row by its norm
        for side, finals in (("source", values), ("target", target_finals)):
            if not np.all(np.isfinite(finals)):
                raise EnTrError(f"entropy requires finite {side} finals")
    row_blocks = (((rows, values[rows]) for rows in diff.blocks(shape[0], 3 * 8 * shape[1]))
                  if target_finals is None else cosine_rows(values, target_finals))
    row_entropy = np.empty(shape[0])
    for rows, block in row_blocks:
        if not np.all(np.isfinite(block)):
            raise EnTrError("entropy requires a finite matrix")
        s = block - block.max(axis=1, keepdims=True)
        e = np.exp(s)
        z = e.sum(axis=1)
        e *= s
        row_entropy[rows] = np.log(z) - e.sum(axis=1) / z
        del block, s, e  # freed before the next block is made
    return float(row_entropy.sum())


def seed_budget(h_tilde: float, h_current: float, beta: float,
                e_count: int, e_star_count: int) -> int:
    """Number of pairs the seed set may grow by this epoch (floored, >= 0)."""
    if h_tilde <= 0.0:
        raise EnTrError("degenerate pre-training entropy")
    if not 0.0 <= beta <= 1.0:
        raise EnTrError(f"beta must lie in [0, 1], got {beta}")
    budget = beta * (h_tilde - h_current) / h_tilde * min(e_count, e_star_count)
    return max(0, int(np.floor(budget)))


def enlarge_seeds(matrix: np.ndarray, q: int, seed_set: SeedSet) -> SeedSet:
    """Given train pairs plus up to q fresh pairs picked greedily by
    descending similarity (greedy_one_to_one), skipping any entity already
    claimed. Previously enlarged pairs are discarded and recomputed. Only a
    positive q reads `matrix`, which may be None otherwise."""
    if q < 0:
        raise EnTrError(f"negative enlargement budget {q}")
    given = seed_set.given_pairs()
    fresh = np.asarray(greedy_one_to_one(matrix, q, given[:, 0], given[:, 1]) if q else [],
                       dtype=np.int64).reshape(-1, 2)
    return SeedSet(seed_set.kg_pair, np.concatenate([given, fresh]),
                   [GIVEN] * len(given) + [ENLARGED] * len(fresh))


def _close(multikg: MultiKg, seed_sets: list[SeedSet],
           rows: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """`rows` (per KG id) extended with the images of triples whose endpoints
    are both mapped, until a pass adds nothing. Each pass walks the seed sets
    in order, each forward then backward, and appends the images a target
    lacks in source-row order, so appended rows follow their arrival order.
    """
    directions = []  # (source id, target id, dense map with -1 for unmapped ids)
    for seed_set in seed_sets:
        for side in (0, 1):
            source_id, target_id = seed_set.kg_pair[side], seed_set.kg_pair[1 - side]
            mapping = np.full(multikg.by_id[source_id].entity_count, -1, dtype=np.int64)
            mapping[seed_set.pairs[:, side]] = seed_set.pairs[:, 1 - side]
            directions.append((source_id, target_id, mapping))
    rows = dict(rows)
    while True:
        added = 0
        for source_id, target_id, mapping in directions:
            source = rows[source_id]
            heads, tails = mapping[source[:, 0]], mapping[source[:, 2]]
            covered = (heads >= 0) & (tails >= 0)
            images = np.column_stack([heads[covered], source[covered, 1], tails[covered]])
            count = multikg.by_id[target_id].entity_count
            keys = triple_keys(images, count)
            _, first = np.unique(keys, return_index=True)
            first.sort()
            fresh = first[~np.isin(keys[first], triple_keys(rows[target_id], count))]
            rows[target_id] = np.concatenate([rows[target_id], images[fresh]])
            added += fresh.size
        if added == 0:
            return rows


def transfer_triples(seed_sets: SeedSet | list[SeedSet], multikg: MultiKg,
                     epoch: int = 0) -> int:
    """Copy triples along the seed mappings of one seed set or several, in
    both directions, until no new triple appears; returns the number of
    triples added. Over several sets this is their joint fixpoint, so a chain
    such as kg1-kg2, kg2-kg3 is followed to its end in one call."""
    if isinstance(seed_sets, SeedSet):
        seed_sets = [seed_sets]
    kgs = [multikg.by_id[kg_id]
           for kg_id in dict.fromkeys(kg_id for s in seed_sets for kg_id in s.kg_pair)]
    start = {kg.id: kg.triples for kg in kgs}
    closed = _close(multikg, seed_sets, start)
    for kg in kgs:
        fresh = closed[kg.id][len(start[kg.id]):]
        kg.set_transferred(np.concatenate([kg.transferred, fresh]),
                           np.concatenate([kg.transfer_epochs, np.full(len(fresh), epoch)]))
    return sum(len(closed[kg_id]) - len(rows) for kg_id, rows in start.items())


def prune_stale_transfers(multikg: MultiKg,
                          seed_sets: dict[tuple[str, str], SeedSet]) -> int:
    """Remove transferred triples no longer derivable from loaded triples
    under the current seed mappings; returns the number removed.

    Derivability is judged against the transfer closure recomputed from
    loaded triples only, so chains and mutually-supporting copies whose
    original support vanished are dropped as well.
    """
    closed = _close(multikg, [seed_sets[pair] for pair in sorted(seed_sets)],
                    {kg.id: kg.loaded for kg in multikg.kgs})
    removed = 0
    for kg in multikg.kgs:
        keep = np.isin(triple_keys(kg.transferred, kg.entity_count),
                       triple_keys(closed[kg.id], kg.entity_count))
        if not keep.all():
            kg.set_transferred(kg.transferred[keep], kg.transfer_epochs[keep])
            removed += int(keep.size - keep.sum())
    return removed
