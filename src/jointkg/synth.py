"""Synthetic KG-pair generator.

Builds one connected base graph, then derives each KG as a view of it: the
base triples that KG keeps and the id it gives each base entity. The first
KG drops each triple independently with the configured missing rate and
keeps the base ids; the second keeps every triple under a shuffled entity
relabeling. The ground-truth alignment is that relabeling, and a
configurable fraction of it is written out as seeds.

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
    three splits. Splits hold (n x 3) and seeds (n x 2) int64 rows, as
    `kgdata` keeps them. Entity i of the first KG is entity permutation[i]
    of the second, so the ground truth is the rows (i, permutation[i])."""

    spec: SynthSpec
    permutation: np.ndarray
    seeds: np.ndarray
    splits: dict[str, dict[str, np.ndarray]]


def _sweep_into_train(splits: dict[str, np.ndarray]) -> None:
    """Move held-out triples into train until every entity and relation of
    the KG appears in the training graph (held-out labels must resolve)."""
    covered_entities = set(splits["train"][:, [0, 2]].ravel().tolist())
    covered_relations = set(splits["train"][:, 1].tolist())
    for split in ("valid", "test"):
        resolves = np.ones(len(splits[split]), dtype=bool)
        for i, (h, r, t) in enumerate(splits[split].tolist()):
            if not (h in covered_entities and t in covered_entities and r in covered_relations):
                resolves[i] = False
                covered_entities.update((h, t))
                covered_relations.add(r)
        splits["train"] = np.concatenate([splits["train"], splits[split][~resolves]])
        splits[split] = splits[split][resolves]


def generate(spec: SynthSpec) -> SynthResult:
    rng = substream(spec.rng_seed, "synth")
    base = np.array(_base_graph(spec, rng), dtype=np.int64)

    kept = rng.random(len(base)) >= spec.missing_rate
    if not kept.any():
        raise SynthError("missing_rate removed every triple")

    permutation = rng.permutation(spec.entity_count)

    seed_count = max(1, int(np.floor(spec.seed_fraction * spec.entity_count)))
    chosen = np.sort(rng.choice(spec.entity_count, size=seed_count, replace=False))
    seeds = np.column_stack([chosen, permutation[chosen]])

    # one split over base indices keeps the two KGs' training graphs aligned
    order = rng.permutation(len(base))
    n_train = max(1, int(np.floor(0.8 * len(base))))
    n_valid = max(1, int(np.floor(0.1 * len(base))))
    if n_train + n_valid >= len(base):
        n_train = len(base) - 2
        n_valid = 1
    if n_train < 1:
        raise SynthError("too few triples to split into train/valid/test")
    base_split = {split: np.sort(rows) for split, rows in
                  zip(("train", "valid", "test"), np.split(order, [n_train, n_train + n_valid]))}

    # a KG's view of the base graph: the base triples it keeps and its id of each base entity
    views = {KG_FIRST: (kept, np.arange(spec.entity_count)),
             KG_SECOND: (np.ones(len(base), dtype=bool), permutation)}
    splits: dict[str, dict[str, np.ndarray]] = {}
    for kg_id, (keeps, ids) in views.items():
        triples = np.column_stack([ids[base[:, 0]], base[:, 1], ids[base[:, 2]]])
        per_split = {split: triples[rows[keeps[rows]]] for split, rows in base_split.items()}
        _sweep_into_train(per_split)
        if not len(per_split["valid"]) or not len(per_split["test"]):
            raise SynthError("too few triples to split into train/valid/test")
        splits[kg_id] = per_split

    return SynthResult(spec, permutation, seeds, splits)


_LABELS = {KG_FIRST: "a{:05d}", KG_SECOND: "b{:05d}"}


def write_dataset(result: SynthResult, out_dir: Path) -> list[Path]:
    """Write the data-directory layout the loader and CLI expect."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, rows: np.ndarray, line: str) -> None:
        path = out_dir / name
        path.write_text("\n".join(line.format(*row) for row in rows.tolist()) + "\n",
                        encoding="utf-8")
        written.append(path)

    triple_line = {kg_id: f"{label}\tr{{}}\t{label}" for kg_id, label in _LABELS.items()}
    for kg_id, per_split in result.splits.items():
        emit(f"triples_{kg_id}.tsv", per_split["train"], triple_line[kg_id])
    for kg_id, per_split in result.splits.items():
        for split, triples in per_split.items():
            emit(f"kgc_{split}_{kg_id}.tsv", triples, triple_line[kg_id])
    pair_line = f"{_LABELS[KG_FIRST]}\t{_LABELS[KG_SECOND]}"
    emit(f"seeds_{KG_FIRST}_{KG_SECOND}.tsv", result.seeds, pair_line)
    truth = np.column_stack([np.arange(len(result.permutation)), result.permutation])
    emit(f"ground_truth_{KG_FIRST}_{KG_SECOND}.tsv", truth, pair_line)
    return written
