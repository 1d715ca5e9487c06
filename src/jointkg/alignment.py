"""Alignment component: per-layer fusion of completion embeddings into the
alignment encoder, the final entity head over the layer stack, the dense
similarity matrix, nearest-entity negatives, the margin loss over aligned
pairs, and greedy one-to-one matching. The fusion reads the completion
tables in place, as constants valid until the next completion step. The
fusion and head MLPs record one `diff.affine` node per layer over column
parts, no taped concatenation, and the margin loss reads its pairs' rows
through `diff.cosine_distance`, no taped gathers.

The similarity matrix is a plain (source x target) ndarray of cosines.
Aligned pairs are (left, right) rows, as in `SeedSet.pairs`; negatives are
int64 (positive index, left, right) rows, the form `nearest_negatives`
returns and `alignment_loss` reads. `cosine_rows`, the one untaped cosine
kernel and the one check of the finals, feeds the matrix, nearest negatives
(ranked by `top_columns`) and ENTR; it and greedy's best free columns work
in row blocks of at most `diff.BLOCK_BYTES` bytes of float64 values."""
from __future__ import annotations

import heapq
from pathlib import Path

import numpy as np

from . import diff
from .diff import Mlp, ParameterBlock, Tensor
from .errors import AlignmentError
from .rgnn import FusionHook, LayerEmbeddings


class FusionParams(ParameterBlock):
    """One entity and one relation fusion MLP (2n -> n) per layer 0..K."""

    def __init__(self, entity_fusers: list[Mlp], relation_fusers: list[Mlp]):
        self.entity_fusers = entity_fusers
        self.relation_fusers = relation_fusers

    @classmethod
    def create(cls, layer_count: int, dim: int, rng: np.random.Generator) -> "FusionParams":
        entity_fusers = [Mlp.create([2 * dim, dim, dim], ("leakyrelu", "identity"), rng)
                         for _ in range(layer_count + 1)]
        relation_fusers = [Mlp.create([2 * dim, dim, dim], ("leakyrelu", "identity"), rng)
                           for _ in range(layer_count + 1)]
        return cls(entity_fusers, relation_fusers)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for k, (a1, a2) in enumerate(zip(self.entity_fusers, self.relation_fusers)):
            named += a1.named_parameters(f"{prefix}/layer{k}/entity")
            named += a2.named_parameters(f"{prefix}/layer{k}/relation")
        return named


def make_fusion_hook(completion_layers: LayerEmbeddings, fusion: FusionParams) -> FusionHook:
    """Hook for the alignment encoder that applies the per-layer fusion
    MLP(completion || alignment) to the entity and the relation table.

    Completion tables enter as constant column parts that share the
    completion arrays, so the alignment loss cannot reach completion
    parameters and no table is copied. Layer 0 is the completion
    parameters, which each completion step updates in place: a hook is
    valid only until the next completion step.
    """
    entities = [diff.tensor(t.values) for t in completion_layers.entities]
    relations = [diff.tensor(t.values) for t in completion_layers.relations]

    def hook(entity: Tensor, relation: Tensor, layer: int) -> tuple[Tensor, Tensor]:
        return (fusion.entity_fusers[layer]([entities[layer], entity]),
                fusion.relation_fusers[layer]([relations[layer], relation]))

    return hook


def final_embeddings(layers: LayerEmbeddings, head: Mlp) -> tuple[Tensor, list[Tensor]]:
    """The entity finals, `head` over the layer 0..K entity tables as column
    parts, and the layer 0..K relation tables as given, with no node: only
    the entity finals enter the loss, ranking and matching."""
    return head(list(layers.entities)), layers.relations


def _unit_rows(table: np.ndarray, side: str) -> np.ndarray:
    if not np.all(np.isfinite(table)):
        raise AlignmentError(f"non-finite embedding in {side} final table")
    norms = np.sqrt((table * table).sum(axis=1))
    if np.any(norms == 0.0):
        raise AlignmentError(f"zero-norm embedding in {side} final table")
    return table / norms[:, None]


def cosine_rows(source_finals: np.ndarray, target_finals: np.ndarray, out=None):
    """Yield (rows, unit(source)[rows] @ unit(target).T) over source row
    blocks of a third of `diff.BLOCK_BYTES` (ENTR and `top_columns` make two
    more tables of each), written into out[rows] if `out` is given. BLAS
    rounds a cosine by its row's place in a product, so all callers take
    these blocks. A non-finite or zero-norm row raises AlignmentError."""
    source = _unit_rows(source_finals, "source")
    target = _unit_rows(target_finals, "target").T
    for rows in diff.blocks(len(source), 3 * 8 * target.shape[1]):
        yield rows, np.matmul(source[rows], target, out=None if out is None else out[rows])


def build_alignment_matrix(source_finals: np.ndarray, target_finals: np.ndarray,
                           kg_pair: tuple[str, str] = ("", "")) -> np.ndarray:
    """Entries are 1 - cosine_distance = cosine similarity, in [-1, 1].

    `kg_pair` is unused; it stays only because `perfbench/worker.py` still
    passes the pair."""
    matrix = np.empty((len(source_finals), len(target_finals)))
    for _ in cosine_rows(source_finals, target_finals, matrix):
        pass
    return matrix


def top_columns(values: np.ndarray, k: int) -> np.ndarray:
    """Per row of `values`, its first k columns in the order (value
    descending, column ascending), as a (rows x k) int64 array; NaN ranks
    last, as in a stable sort of the negated values. It holds three
    float64 tables of `values`' shape at once (`values`, its negation and
    the partitioned copy), so its one caller, `nearest_negatives`, blocks
    rows by 3 * 8 * columns bytes."""
    key = -values
    # a row keeps at least k entries: its k least keys, ties at the k-th included
    kept = ~(key > np.partition(key, k - 1, axis=1)[:, k - 1, None])
    # nonzero lists each row's columns ascending, and lexsort is stable
    r, c = np.nonzero(kept)
    ordered = c[np.lexsort((key[r, c], r))].astype(np.int64)
    counts = np.count_nonzero(kept, axis=1)
    return ordered[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]


def nearest_negatives(pairs: np.ndarray, source_finals: np.ndarray,
                      target_finals: np.ndarray, k_neg: int) -> np.ndarray:
    """For each positive pair, 2*k_neg negatives made by swapping either side
    for its k_neg nearest same-KG entities (cosine; never the entity
    itself). Bit-equal cosines tie to the lowest id, but BLAS may round the
    cosines of identical rows differently, so duplicated or collapsed finals
    can rank by rounding rather than by id. Returns an int64 (pairs * 2k_neg
    x 3) array of (positive index, left, right) rows, each positive's left
    swaps before its right swaps. Each side ranks `cosine_rows(finals[seed
    rows], finals)`, so an error's "source" table is that side's seed rows."""
    if k_neg < 1:
        raise AlignmentError(f"k_neg must be >= 1, got {k_neg}")
    if len(source_finals) <= k_neg or len(target_finals) <= k_neg:
        raise AlignmentError(f"KG smaller than k_neg + 1 = {k_neg + 1} entities")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    nearest = np.empty((2, len(pairs), k_neg), dtype=np.int64)
    for s, finals in enumerate((source_finals, target_finals)):
        for rows, sims in cosine_rows(finals[pairs[:, s]], finals):
            sims[np.arange(sims.shape[0]), pairs[rows, s]] = -np.inf
            nearest[s, rows] = top_columns(sims, k_neg)
    left = np.hstack([nearest[0], np.repeat(pairs[:, :1], k_neg, axis=1)])
    right = np.hstack([np.repeat(pairs[:, 1:], k_neg, axis=1), nearest[1]])
    index = np.repeat(np.arange(len(pairs), dtype=np.int64), 2 * k_neg)
    return np.column_stack([index, left.ravel(), right.ravel()])


def alignment_loss(pairs, negatives, gamma_a: float, entity_finals: Tensor) -> Tensor:
    """Hinge gamma_a + d(pos) - d(neg) per positive-negative pairing, mean
    over all pairings, d the `diff.cosine_distance` of one pairing's rows.
    `pairs` are (left, right) rows, as an array or a list; `negatives` are
    (positive index, left, right) rows or (index, (left, right)) items, and
    an index outside `pairs` raises AlignmentError. Entity ids are rows of
    the shared finals table. No node keeps gathered (pairings x dim) rows;
    the finals' gradient adds negatives' left, negatives' right, positives'
    left, then positives' right rows, as gathers would."""
    if len(negatives) == 0:
        raise AlignmentError("alignment loss needs at least one negative pair")
    if not isinstance(negatives, np.ndarray):
        negatives = np.column_stack(tuple(zip(*negatives)))
    index, left, right = negatives.T
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if np.any((index < 0) | (index >= len(pairs))):
        raise AlignmentError(f"a negative names a positive outside 0..{len(pairs) - 1}")
    d_pos = diff.cosine_distance(entity_finals, pairs[index, 0], pairs[index, 1])
    d_neg = diff.cosine_distance(entity_finals, left, right)
    return diff.mean_all(diff.relu(diff.add(diff.sub(diff.tensor(gamma_a), d_neg), d_pos)))


def greedy_one_to_one(values: np.ndarray, limit: int, taken_rows=(), taken_cols=()
                      ) -> list[tuple[int, int]]:
    """Up to `limit` (row, column) picks, using each row and column at most
    once and none already taken.

    The picks are those of a walk over every entry in the order (value
    descending, row ascending, column ascending) that takes each entry whose
    row and column are both still free. Ties go to the lowest row and column
    only between bit-equal values, and BLAS may round the cosines of
    identical rows apart. It runs as a lazy heap of row heads: each free
    row's head is its best free column (`argmax`, lowest column among ties),
    computed in row blocks of at most `diff.BLOCK_BYTES` bytes with the taken
    columns at -inf; the heap pops the least (-value, row, column) head, and
    a head whose column was taken meanwhile is recomputed over the columns
    still free and pushed back. With a positive limit, a non-finite matrix
    raises AlignmentError, since NaN has no place in that order.
    """
    picks: list[tuple[int, int]] = []
    if limit > 0 and not np.all(np.isfinite(values)):
        raise AlignmentError("greedy matching requires a finite matrix")
    free_rows = np.delete(np.arange(values.shape[0]), list(taken_rows))
    col_used = np.zeros(values.shape[1], dtype=bool)
    col_used[list(taken_cols)] = True
    limit = min(limit, free_rows.size, int(np.count_nonzero(~col_used)))
    if limit <= 0:
        return picks
    heap: list[tuple[float, int, int]] = []
    for rows in diff.blocks(free_rows.size, 8 * values.shape[1]):
        block = values[free_rows[rows]]
        np.copyto(block, -np.inf, where=col_used)
        heads = block.argmax(axis=1)
        del block  # freed before the next block is built
        heap += zip((-values[free_rows[rows], heads]).tolist(), free_rows[rows].tolist(),
                    heads.tolist())
    heapq.heapify(heap)
    while len(picks) < limit:
        _, r, c = heapq.heappop(heap)
        if col_used[c]:
            c = int(np.where(col_used, -np.inf, values[r]).argmax())
            heapq.heappush(heap, (-float(values[r, c]), r, c))
            continue
        col_used[c] = True
        picks.append((r, c))
    return picks


def greedy_match(matrix: np.ndarray) -> list[tuple[int, int, float]]:
    """One-to-one pairs by descending similarity until rows or columns run
    out, each with its score."""
    values = np.asarray(matrix)
    return [(r, c, float(values[r, c])) for r, c in greedy_one_to_one(values, min(values.shape))]


def write_matches(matches: list[tuple[int, int, float]], source_labels: list[str],
                  target_labels: list[str], path) -> None:
    """entity<TAB>entity<TAB>score, one line per matched pair."""
    lines = [f"{source_labels[r]}\t{target_labels[c]}\t{s:.6f}" for r, c, s in matches]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
