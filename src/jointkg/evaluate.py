"""Ranking evaluation for both tasks.

Completion: each test triple competes against every same-KG entity as a tail
candidate; candidates forming another known-true triple are removed first
(filtered protocol) and ties count against the model. The filter is the
sorted `triple_keys` of the KG's train, valid and test triples (never its
transferred ones): the known tails of (h, r) are its keys in [key(h, r, 0),
key(h, r, n)). A KG's whole split is scored in one `score_all_tails` call:
a (queries x candidates) matrix that starts at 0.0 and subtracts, layer by
layer in order, scipy's cityblock distance from head + relation to each
candidate (summed over dimensions in order). Its query rows are scored in
equal ranges, one thread per core made for the call, that leave each
entry's sum as it is, so the ranks are the same at any core count. Each
row is then ranked on its own. Alignment: the true counterpart is ranked
among all target entities by cosine similarity.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alignment import build_alignment_matrix
from .completion import score_all_tails
from .errors import EvalError
from .kgdata import MultiKg, SeedSet, triple_keys

HITS_AT = (1, 10)  # the paper reports Hits@1 and Hits@10


@dataclass
class RankResult:
    query: tuple
    rank: int
    candidate_count: int

    def __post_init__(self):
        if not 1 <= self.rank <= self.candidate_count:
            raise EvalError(
                f"rank {self.rank} outside 1..{self.candidate_count} for {self.query}"
            )


def pessimistic_rank(scores: np.ndarray, true_index: int, excluded) -> tuple[int, int]:
    """Rank of true_index among candidates not in `excluded` (any iterable of
    ints), counting every tie as scoring higher; returns (rank, candidates)."""
    keep = np.ones(scores.shape[0], dtype=bool)
    keep[true_index] = False
    keep[np.fromiter(excluded, dtype=np.int64)] = False
    candidates = scores[keep]
    # NaN compares False either way, so a NaN candidate never outranks
    better_or_equal = int(np.count_nonzero(candidates >= scores[true_index]))
    return better_or_equal + 1, candidates.size + 1


def kgc_rank(test_triple: tuple[int, int, int], entity_count: int,
             known: dict[tuple[int, int], set[int]], scores: np.ndarray) -> RankResult:
    """Filtered rank of the true tail among all candidate tails.

    `scores` holds the model score of (h, r, t') for every candidate t' in
    the KG's local id block.
    """
    h, r, t = test_triple
    if scores.shape != (entity_count,):
        raise EvalError(f"expected {entity_count} candidate scores, got {scores.shape}")
    rank, candidates = pessimistic_rank(scores, t, known.get((h, r), ()))
    return RankResult(query=test_triple, rank=rank, candidate_count=candidates)


def kga_rank(similarities: np.ndarray, true_target: int) -> RankResult:
    """Rank of the true counterpart among all target entities (pessimistic)."""
    rank, candidates = pessimistic_rank(similarities, true_target, set())
    return RankResult(query=(true_target,), rank=rank, candidate_count=candidates)


def aggregate(ranks: list[int]) -> dict[str, float]:
    """MRR and Hits@k, k in HITS_AT, for a list of ranks."""
    if not ranks:
        raise EvalError("cannot aggregate an empty rank list")
    ranks_array = np.asarray(ranks, dtype=np.float64)
    metrics = {"MRR": float((1.0 / ranks_array).mean())}
    for k in HITS_AT:
        metrics[f"Hits@{k}"] = float((ranks_array <= k).mean())
    return metrics


# ---------------------------------------------------------------------------
# whole-dataset sweeps


def evaluate_kgc(multikg: MultiKg, entity_layer_values: list[np.ndarray],
                 relation_layer_values: list[np.ndarray], split: str = "test"
                 ) -> dict[str, dict[str, float]]:
    """Per-KG completion metrics for one kgc split."""
    results: dict[str, dict[str, float]] = {}
    for kg in multikg.kgs:
        triples = multikg.kgc_splits[kg.id][split]
        if len(triples) == 0:
            continue
        offset, n = multikg.entity_offset(kg.id), kg.entity_count
        known = np.unique(triple_keys(np.concatenate([*multikg.kgc_splits[kg.id].values()]), n))
        first = triple_keys(triples, n) - triples[:, 2]  # key(h, r, 0) per query
        bounds = np.searchsorted(known, first[:, None] + (0, n))
        scores = score_all_tails(offset + triples[:, 0], triples[:, 1], entity_layer_values,
                                 relation_layer_values, offset, n)
        ranks = [pessimistic_rank(row, t, known[lo:hi] - base)[0] for row, t, base, (lo, hi)
                 in zip(scores, triples[:, 2].tolist(), first.tolist(), bounds.tolist())]
        results[kg.id] = dict(aggregate(ranks), count=float(len(ranks)))
    return results


def kga_metrics(similarities: np.ndarray, seed_set: SeedSet) -> dict[str, float]:
    """Metrics of one pair's seed pairs ranked in its (source x target) block."""
    ranks = [kga_rank(similarities[e], e_star).rank for e, e_star in seed_set.pairs.tolist()]
    return dict(aggregate(ranks), count=float(len(ranks)))


def evaluate_kga(multikg: MultiKg, entity_finals: np.ndarray,
                 test_seeds: dict[tuple[str, str], SeedSet]
                 ) -> dict[tuple[str, str], dict[str, float]]:
    """Per-pair alignment metrics over held-out seed pairs."""
    results: dict[tuple[str, str], dict[str, float]] = {}
    for pair, seed_set in sorted(test_seeds.items()):
        if len(seed_set) == 0:
            continue
        source, target, _, _ = multikg.pair_blocks(pair, entity_finals)
        results[pair] = kga_metrics(build_alignment_matrix(source, target), seed_set)
    return results


def overall_mean(per_scope: dict, metric: str) -> float:
    """Equal-weight mean of one metric across KGs or KG pairs."""
    if not per_scope:
        raise EvalError("no scopes to average")
    return float(np.mean([m[metric] for m in per_scope.values()]))


def write_results(path: Path, kgc: dict[str, dict[str, float]] | None,
                  kga: dict[tuple[str, str], dict[str, float]] | None) -> str:
    """TSV rows task<TAB>scope<TAB>metric<TAB>value plus a summary table;
    returns the rendered summary."""
    rows: list[str] = []
    summary: list[str] = []

    def block(task: str, scoped: dict, scope_name) -> None:
        names = sorted(scoped)
        metric_names = [m for m in next(iter(scoped.values())) if m != "count"]
        header = f"{task:8s} " + " ".join(f"{m:>8s}" for m in metric_names)
        summary.append(header)
        for name in names:
            for metric in metric_names + ["count"]:
                rows.append(f"{task}\t{scope_name(name)}\t{metric}\t{scoped[name][metric]:.6f}")
            summary.append(f"{scope_name(name):8s} "
                           + " ".join(f"{scoped[name][m]:8.4f}" for m in metric_names))
        for metric in metric_names:
            rows.append(f"{task}\toverall\t{metric}\t{overall_mean(scoped, metric):.6f}")
        summary.append(f"{'overall':8s} "
                       + " ".join(f"{overall_mean(scoped, m):8.4f}" for m in metric_names))
        summary.append("")

    if kgc:
        block("kgc", kgc, lambda kg_id: kg_id)
    if kga:
        block("kga", kga, lambda pair: f"{pair[0]}-{pair[1]}")
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8")
    return "\n".join(summary)
