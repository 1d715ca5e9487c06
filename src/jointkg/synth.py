"""Synthetic KG-pair generator.

Builds one connected base graph, then derives two KGs: the first drops each
triple independently with the configured missing rate, the second keeps the
full graph under a shuffled entity relabeling. The ground-truth alignment is
that relabeling, and a configurable fraction of it is written out as seeds.

Each KG is split train/valid/test on shared base-triple indices (so the two
training graphs stay aligned), and the written triples_<kg>.tsv file is the
training graph: held-out triples appear only in the kgc split files, never
in message passing. Everything is a deterministic function of the spec.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import SynthError
from .seeding import substream

KG_FIRST = "kg1"
KG_SECOND = "kg2"


@dataclass
class SynthSpec:
    entity_count: int = 200
    relation_count: int = 3
    mean_degree: float = 4.0
    missing_rate: float = 0.0
    seed_fraction: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        if self.entity_count < 2:
            raise SynthError(f"need at least 2 entities, got {self.entity_count}")
        if self.relation_count < 1:
            raise SynthError(f"need at least 1 relation, got {self.relation_count}")
        if not math.isfinite(self.mean_degree):
            raise SynthError(f"mean_degree must be finite, got {self.mean_degree}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise SynthError(f"missing_rate must lie in [0, 1), got {self.missing_rate}")
        if not 0.0 < self.seed_fraction <= 1.0:
            raise SynthError(f"seed_fraction must lie in (0, 1], got {self.seed_fraction}")
        if self.rng_seed < 0:
            raise SynthError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.triple_count < 1:
            raise SynthError("spec implies an empty graph")

    @property
    def triple_count(self) -> int:
        return int(round(self.entity_count * self.mean_degree / 2.0))

    def to_dict(self) -> dict:
        return asdict(self)


def _base_graph(spec: SynthSpec, rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """Connected random graph with consistent relation semantics.

    Entities sit on a line and every relation is a fixed positive offset, so
    completion is actually learnable: (h, r) determines the tail and the
    offsets embed exactly as translations. Relation 0 is the successor and a
    spanning path over it guarantees connectivity; the remaining triples
    sample random (head, relation) pairs that stay inside the line.
    """
    entity_count = spec.entity_count
    top = max(3, entity_count // 4)
    offsets = [1] + [int(o) for o in rng.integers(2, top, size=spec.relation_count - 1)]
    available = sum(max(0, entity_count - d) for d in offsets)
    if spec.triple_count > available:
        raise SynthError("mean_degree too large for distinct (head, relation) pairs")
    triples = [(i, 0, i + 1) for i in range(min(entity_count - 1, spec.triple_count))]
    existing = set(triples)
    attempts = 0
    limit = 50 * spec.triple_count + 1000
    while len(triples) < spec.triple_count and attempts < limit:
        attempts += 1
        h = int(rng.integers(entity_count))
        r = int(rng.integers(spec.relation_count))
        tail = h + offsets[r]
        if tail >= entity_count or (h, r, tail) in existing:
            continue
        existing.add((h, r, tail))
        triples.append((h, r, tail))
    if len(triples) < spec.triple_count:
        raise SynthError("could not place the requested number of distinct triples")
    return triples


@dataclass
class SynthResult:
    """Each KG's "train" split is its training graph (what the
    triples_<kg>.tsv files carry); the kept KGs are the unions of each KG's
    three splits. Entity i of the first KG is entity permutation[i] of the
    second."""

    spec: SynthSpec
    permutation: np.ndarray
    seeds: list[tuple[int, int]]
    splits: dict[str, dict[str, list[tuple[int, int, int]]]]


def _sweep_into_train(splits: dict[str, list[tuple[int, int, int]]]) -> None:
    """Move held-out triples into train until every entity and relation of
    the KG appears in the training graph (held-out labels must resolve)."""
    covered_entities = {e for h, _, t in splits["train"] for e in (h, t)}
    covered_relations = {r for _, r, _ in splits["train"]}
    for split in ("valid", "test"):
        keep = []
        for triple in splits[split]:
            h, r, t = triple
            if h in covered_entities and t in covered_entities and r in covered_relations:
                keep.append(triple)
            else:
                splits["train"].append(triple)
                covered_entities.update((h, t))
                covered_relations.add(r)
        splits[split] = keep


def generate(spec: SynthSpec) -> SynthResult:
    rng = substream(spec.rng_seed, "synth")
    base = _base_graph(spec, rng)

    dropped = rng.random(len(base)) < spec.missing_rate
    kept_index = [i for i in range(len(base)) if not dropped[i]]
    if not kept_index:
        raise SynthError("missing_rate removed every triple")

    permutation = rng.permutation(spec.entity_count)
    relabel = lambda t: (int(permutation[t[0]]), t[1], int(permutation[t[2]]))

    seed_count = max(1, int(np.floor(spec.seed_fraction * spec.entity_count)))
    chosen = np.sort(rng.choice(spec.entity_count, size=seed_count, replace=False))
    seeds = [(int(i), int(permutation[i])) for i in chosen]

    # one split over base indices keeps the two KGs' training graphs aligned
    order = rng.permutation(len(base))
    n_train = max(1, int(np.floor(0.8 * len(base))))
    n_valid = max(1, int(np.floor(0.1 * len(base))))
    if n_train + n_valid >= len(base):
        n_train = len(base) - 2
        n_valid = 1
    if n_train < 1:
        raise SynthError("too few triples to split into train/valid/test")
    base_split = {
        "train": set(order[:n_train].tolist()),
        "valid": set(order[n_train:n_train + n_valid].tolist()),
        "test": set(order[n_train + n_valid:].tolist()),
    }

    splits: dict[str, dict[str, list[tuple[int, int, int]]]] = {}
    kept_set = set(kept_index)
    for kg_id in (KG_FIRST, KG_SECOND):
        per_split: dict[str, list[tuple[int, int, int]]] = {}
        for split, indices in base_split.items():
            rows = sorted(indices)
            if kg_id == KG_FIRST:
                rows = [i for i in rows if i in kept_set]
                per_split[split] = [base[i] for i in rows]
            else:
                per_split[split] = [relabel(base[i]) for i in rows]
        _sweep_into_train(per_split)
        if not per_split["valid"] or not per_split["test"]:
            raise SynthError("too few triples to split into train/valid/test")
        splits[kg_id] = per_split

    return SynthResult(spec, permutation, seeds, splits)


def entity_label(kg_id: str, index: int) -> str:
    prefix = "a" if kg_id == KG_FIRST else "b"
    return f"{prefix}{index:05d}"


def _triple_lines(kg_id: str, triples: list[tuple[int, int, int]]) -> str:
    lines = [f"{entity_label(kg_id, h)}\tr{r}\t{entity_label(kg_id, t)}"
             for h, r, t in triples]
    return "\n".join(lines) + "\n"


def write_dataset(result: SynthResult, out_dir: Path) -> list[Path]:
    """Write the data-directory layout the loader and CLI expect."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    for kg_id in (KG_FIRST, KG_SECOND):
        emit(f"triples_{kg_id}.tsv", _triple_lines(kg_id, result.splits[kg_id]["train"]))
    for kg_id in (KG_FIRST, KG_SECOND):
        for split, triples in result.splits[kg_id].items():
            emit(f"kgc_{split}_{kg_id}.tsv", _triple_lines(kg_id, triples))
    seed_lines = [f"{entity_label(KG_FIRST, a)}\t{entity_label(KG_SECOND, b)}"
                  for a, b in result.seeds]
    emit(f"seeds_{KG_FIRST}_{KG_SECOND}.tsv", "\n".join(seed_lines) + "\n")
    truth_lines = [f"{entity_label(KG_FIRST, a)}\t{entity_label(KG_SECOND, b)}"
                   for a, b in enumerate(result.permutation.tolist())]
    emit(f"ground_truth_{KG_FIRST}_{KG_SECOND}.tsv", "\n".join(truth_lines) + "\n")
    return written
