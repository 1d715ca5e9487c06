"""Data model for multilingual KGs: triple/seed/split/vector file ingestion.

File formats (UTF-8, LF lines):
  triples:  head<TAB>relation<TAB>tail
  seeds:    entity<TAB>entity
  vectors:  label followed by whitespace-separated floats
  transfer sidecar (output only): head<TAB>relation<TAB>tail<TAB>epoch

Entity ids are dense per KG in first-seen file order; relation ids are dense
in one vocabulary shared by every KG, which is what makes cross-KG triple
transfer well defined.

Triples are int64 (head, relation, tail) rows kept in order (see `Kg`).
Where membership matters (negative sampling, transfer, the ranking filter),
`triple_keys` encodes rows as int64 keys on the spot; keys depend on the
KG's entity count, which grows while it loads, so none are stored. Seed
pairs (`SeedSet.pairs`) are an (n x 2) int64 array of (left id, right id)
rows and each completion split (`MultiKg.kgc_splits[kg][split]`) an (n x 3)
int64 array of triples; both are converted once, when the object is built,
from whatever sequence of pairs or triples the caller passes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import KgDataError, ParseError
from .seeding import substream

GIVEN = "given"
ENLARGED = "enlarged"
# share of a KG pair's given seed pairs that trains; the rest are test pairs
SEED_TRAIN_FRACTION = 0.5


@dataclass(frozen=True)
class Triple:
    head: int
    relation: int
    tail: int

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.head, self.relation, self.tail)


def triple_keys(rows: np.ndarray, entity_count: int) -> np.ndarray:
    """One int64 key per (head, relation, tail) row of a KG with n =
    `entity_count` entities; rows share a key exactly when equal, and the
    tails of (h, r) fill the key run [key(h, r, 0), key(h, r, n))."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return (rows[:, 1] * entity_count + rows[:, 0]) * entity_count + rows[:, 2]


class RelationVocab:
    """Relation label <-> global id table shared by every KG."""

    def __init__(self):
        self.labels: list[str] = []
        self.index: dict[str, int] = {}

    def intern(self, label: str) -> int:
        rid = self.index.get(label)
        if rid is None:
            rid = len(self.labels)
            self.labels.append(label)
            self.index[label] = rid
        return rid

    def __len__(self) -> int:
        return len(self.labels)


class Kg:
    """One language's graph.

    `loaded` holds the rows read from the data, in first-seen file order,
    and does not change after load. `transferred` holds the rows copied in
    from paired KGs, in arrival order, with their epochs in
    `transfer_epochs`; ENTR appends and prunes them between epochs, always
    through `set_transferred`. No row appears twice across the two arrays.
    Both orders are kept because transferred rows reach negative sampling
    in storage order.
    """

    def __init__(self, kg_id: str, relations: RelationVocab):
        self.id = kg_id
        self.relations = relations
        self.entity_labels: list[str] = []
        self.entity_index: dict[str, int] = {}
        self.loaded = np.empty((0, 3), dtype=np.int64)
        self.transferred = np.empty((0, 3), dtype=np.int64)
        self.transfer_epochs = np.empty(0, dtype=np.int64)
        self.duplicate_count = 0

    @property
    def entity_count(self) -> int:
        return len(self.entity_labels)

    @property
    def relation_count(self) -> int:
        return int(np.unique(self.loaded[:, 1]).size)

    @property
    def triples(self) -> np.ndarray:
        """Loaded rows, then transferred rows."""
        return np.concatenate([self.loaded, self.transferred])

    def intern_entity(self, label: str) -> int:
        eid = self.entity_index.get(label)
        if eid is None:
            eid = len(self.entity_labels)
            self.entity_labels.append(label)
            self.entity_index[label] = eid
        return eid

    def has_triple(self, head: int, relation: int, tail: int) -> bool:
        return bool((self.triples == (head, relation, tail)).all(axis=1).any())

    def add_triple(self, head: int, relation: int, tail: int) -> bool:
        """Append a loaded triple; returns False when it is already present."""
        if self.has_triple(head, relation, tail):
            return False
        self.loaded = np.concatenate([self.loaded, [(head, relation, tail)]])
        return True

    def set_transferred(self, rows: np.ndarray, epochs: np.ndarray) -> None:
        """Replace the transferred rows and their epochs."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        epochs = np.asarray(epochs, dtype=np.int64).reshape(len(rows))
        keys = triple_keys(np.concatenate([self.loaded, rows]), self.entity_count)
        if np.unique(keys).size != keys.size:
            raise KgDataError(f"transferred triples of {self.id} repeat a triple")
        self.transferred, self.transfer_epochs = rows, epochs

    def transferred_triples(self) -> list[Triple]:
        return [Triple(*row) for row in self.transferred.tolist()]

    def neighbor_index(self) -> np.ndarray:
        """N(e) as int64 rows (center, neighbor, relation), sorted and unique.

        A row is present when (center, relation, neighbor) or (neighbor,
        relation, center) is a triple, loaded or transferred; a self-loop
        gives one row.
        """
        rows = self.triples
        both_ways = np.concatenate([rows[:, [0, 2, 1]], rows[:, [2, 0, 1]]])
        return np.unique(both_ways, axis=0)


@dataclass
class SeedSet:
    """Aligned entity pairs between one ordered KG pair, one-to-one per side.

    `pairs` may be given as any sequence of (left, right) pairs; it is kept
    as an (n x 2) int64 array.
    """

    kg_pair: tuple[str, str]
    pairs: np.ndarray
    provenance: list[str]

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if len(self.pairs) != len(self.provenance):
            raise KgDataError("seed pairs and provenance lists must match")
        if not set(self.provenance) <= {GIVEN, ENLARGED}:
            raise KgDataError(f"seed provenance must be {GIVEN!r} or {ENLARGED!r}")
        self.validate_one_to_one()

    def validate_one_to_one(self) -> None:
        for column in self.pairs.T:
            if np.unique(column).size != column.size:
                raise KgDataError(f"seed set for {self.kg_pair} reuses an entity")

    def __len__(self) -> int:
        return len(self.pairs)

    def given_pairs(self) -> np.ndarray:
        return self.pairs[np.asarray(self.provenance, dtype=str) == GIVEN]

    def mapping(self) -> dict[int, int]:
        return dict(self.pairs.tolist())

    def inverse_mapping(self) -> dict[int, int]:
        return dict(self.pairs[:, ::-1].tolist())


class MultiKg:
    """KGs over one shared relation vocabulary, plus seeds, splits, vectors.

    Surface-information vectors sit in `entity_vectors` by global entity
    row (`entity_offset` + local id) and in `relation_vectors` by relation
    id; `vector_dim` is their length, None until a vector file loads."""

    def __init__(self, kgs: list[Kg], relations: RelationVocab):
        self.kgs = list(kgs)
        self.relations = relations
        self.by_id = {kg.id: kg for kg in self.kgs}
        if len(self.by_id) != len(self.kgs):
            raise KgDataError("duplicate KG ids")
        self.seed_sets: dict[tuple[str, str], SeedSet] = {}
        self.kgc_splits: dict[str, dict[str, np.ndarray]] = {
            kg.id: {split: np.empty((0, 3), dtype=np.int64)
                    for split in ("train", "valid", "test")} for kg in self.kgs
        }
        self.entity_vectors: dict[int, np.ndarray] = {}
        self.relation_vectors: dict[int, np.ndarray] = {}
        self.vector_dim: int | None = None
        self.seeds_skipped: dict[str, int] = {}  # parse_seeds' count, by "<kg1>|<kg2>"
        self.vector_coverage: dict[str, int] | None = None  # load_initial_vectors' counts
        starts = accumulate((kg.entity_count for kg in self.kgs), initial=0)
        self._offsets: dict[str, int] = dict(zip(self.by_id, starts))

    @property
    def total_entities(self) -> int:
        return sum(kg.entity_count for kg in self.kgs)

    def entity_offset(self, kg_id: str) -> int:
        return self._offsets[kg_id]

    def pair_blocks(self, pair: tuple[str, str], finals: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The two KGs' row blocks of a table over all entities, and their
        offsets: (left rows, right rows, left offset, right offset)."""
        off_l = self._offsets[pair[0]]
        off_r = self._offsets[pair[1]]
        return (finals[off_l:off_l + self.by_id[pair[0]].entity_count],
                finals[off_r:off_r + self.by_id[pair[1]].entity_count], off_l, off_r)

    def set_kgc_split(self, kg_id: str, split: str, triples) -> None:
        """Set one split from any sequence of (head, relation, tail) triples."""
        self.kgc_splits[kg_id][split] = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        self._check_split_disjoint(kg_id)

    def _check_split_disjoint(self, kg_id: str) -> None:
        rows = np.concatenate([self.kgc_splits[kg_id][name]
                               for name in ("train", "valid", "test")])
        _, first = np.unique(triple_keys(rows, self.by_id[kg_id].entity_count),
                             return_index=True)
        if first.size != len(rows):
            repeat = tuple(rows[np.setdiff1d(np.arange(len(rows)), first)[0]].tolist())
            raise KgDataError(f"kgc splits for {kg_id} overlap on {repeat}")

    def vocab_hash(self) -> str:
        digest = hashlib.sha256()
        for kg in self.kgs:
            digest.update(kg.id.encode())
            for label in kg.entity_labels:
                digest.update(b"\x00" + label.encode())
        digest.update(b"\x01")
        for label in self.relations.labels:
            digest.update(b"\x00" + label.encode())
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# parsing


def _read_lines(path: Path, what: str) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KgDataError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start}") from None
    return text.splitlines()


def _tsv_fields(path: Path, what: str, width: int):
    """Yield (line number, fields) of a tab-separated file whose every line
    has `width` fields."""
    for number, line in enumerate(_read_lines(path, what), start=1):
        fields = line.split("\t")
        if len(fields) != width:
            raise ParseError(f"{path}:{number}: expected {width} tab-separated fields, "
                             f"got {len(fields)}")
        yield number, fields


def parse_triples(path: Path, kg_id: str, relations: RelationVocab | None = None) -> Kg:
    """Parse a tab-separated triple file into a Kg with dense first-seen ids.

    Duplicate lines are dropped (the first occurrence is kept) and counted on
    kg.duplicate_count.
    """
    relations = relations if relations is not None else RelationVocab()
    kg = Kg(kg_id, relations)
    ids = []
    for _, fields in _tsv_fields(path, "triple", 3):
        ids.append((kg.intern_entity(fields[0]), relations.intern(fields[1]),
                    kg.intern_entity(fields[2])))
    if not ids:
        raise KgDataError(f"empty triple file: {path}")
    rows = np.array(ids, dtype=np.int64)
    _, first = np.unique(triple_keys(rows, kg.entity_count), return_index=True)
    kg.loaded = rows[np.sort(first)]
    kg.duplicate_count = len(rows) - len(first)
    return kg


def parse_seeds(path: Path, kg_left: Kg, kg_right: Kg) -> tuple[SeedSet, int]:
    """Parse entity<TAB>entity alignment seeds; returns (seed set, skip count).

    Lines with a label unknown on either side are skipped and counted, and
    a file none of whose lines resolves is a ParseError. An entity taking
    part in two pairs violates the one-to-one invariant.
    """
    pairs: list[tuple[int, int]] = []
    used_left: set[int] = set()
    used_right: set[int] = set()
    skipped = 0
    for number, fields in _tsv_fields(path, "seed", 2):
        left = kg_left.entity_index.get(fields[0])
        right = kg_right.entity_index.get(fields[1])
        if left is None or right is None:
            skipped += 1
            continue
        if left in used_left or right in used_right:
            raise KgDataError(f"{path}:{number}: entity repeated across seed pairs")
        used_left.add(left)
        used_right.add(right)
        pairs.append((left, right))
    if skipped and not pairs:
        raise ParseError(f"{path}: none of its {skipped} seed lines names two known entities")
    seed_set = SeedSet((kg_left.id, kg_right.id), pairs, [GIVEN] * len(pairs))
    return seed_set, skipped


def split_seeds(seed_set: SeedSet, rng_seed: int) -> tuple[SeedSet, SeedSet]:
    """Deterministic disjoint partition into (train, test); the train side
    takes the floor of SEED_TRAIN_FRACTION of the pairs."""
    if len(seed_set) < 2:
        raise KgDataError(f"need at least 2 seed pairs to split {seed_set.kg_pair}, "
                          f"got {len(seed_set)}")
    rng = substream(rng_seed, "seed-split", seed_set.kg_pair[0], seed_set.kg_pair[1])
    order = rng.permutation(len(seed_set))
    n_train = int(np.floor(SEED_TRAIN_FRACTION * len(seed_set)))
    provenance = np.asarray(seed_set.provenance)
    make = lambda idx: SeedSet(seed_set.kg_pair, seed_set.pairs[idx], provenance[idx].tolist())
    return make(np.sort(order[:n_train])), make(np.sort(order[n_train:]))


def load_initial_vectors(path: Path, multikg: MultiKg) -> dict[str, int]:
    """Attach surface-information vectors by label; returns coverage counts.

    A label can resolve to entities of several KGs and to a relation at once;
    each entity's vector goes under its global row, each relation's under
    its id. Anything without a vector keeps the random initialization. A
    label on two lines, or a NaN or infinite component, is a ParseError.
    """
    covered_entities = 0
    covered_relations = 0
    unknown = 0
    first_line: dict[str, int] = {}
    for number, line in enumerate(_read_lines(path, "vector"), start=1):
        if not line.strip():
            continue
        if "\t" in line:
            label, rest = line.split("\t", 1)
            parts = rest.split()
        else:
            tokens = line.split()
            label, parts = tokens[0], tokens[1:]
        if label in first_line:
            raise ParseError(f"{path}:{number}: label {label!r} repeats line {first_line[label]}")
        first_line[label] = number
        try:
            vector = np.array([float(p) for p in parts], dtype=np.float64)
        except ValueError:
            raise ParseError(f"{path}:{number}: non-numeric vector component") from None
        if vector.size == 0:
            raise ParseError(f"{path}:{number}: no vector components")
        if not np.all(np.isfinite(vector)):
            raise ParseError(f"{path}:{number}: non-finite vector component")
        if multikg.vector_dim is None:
            multikg.vector_dim = int(vector.size)
        elif vector.size != multikg.vector_dim:
            raise KgDataError(
                f"{path}:{number}: vector dimension {vector.size} != {multikg.vector_dim}"
            )
        entity_hits = 0
        for kg in multikg.kgs:
            eid = kg.entity_index.get(label)
            if eid is not None:
                multikg.entity_vectors[multikg.entity_offset(kg.id) + eid] = vector
                entity_hits += 1
        covered_entities += entity_hits
        rid = multikg.relations.index.get(label)
        if rid is not None:
            multikg.relation_vectors[rid] = vector
            covered_relations += 1
        elif not entity_hits:
            unknown += 1
    return {
        "covered_entities": covered_entities,
        "covered_relations": covered_relations,
        "unknown_labels": unknown,
    }


def _resolve_split_triples(path: Path, kg: Kg) -> list[tuple[int, int, int]]:
    triples = []
    for number, fields in _tsv_fields(path, "kgc split", 3):
        head = kg.entity_index.get(fields[0])
        relation = kg.relations.index.get(fields[1])
        tail = kg.entity_index.get(fields[2])
        if head is None or tail is None:
            raise ParseError(f"{path}:{number}: unknown entity label")
        if relation is None:
            raise ParseError(f"{path}:{number}: unknown relation label")
        triples.append((head, relation, tail))
    return triples


def load_multikg(data_dir: Path) -> MultiKg:
    """Load a data directory laid out as:

    triples_<kg>.tsv, seeds_<kg1>_<kg2>.tsv, kgc_{train,valid,test}_<kg>.tsv,
    optional vectors.tsv. KGs are ordered by their file names.
    """
    data_dir = Path(data_dir)
    triple_files = sorted(data_dir.glob("triples_*.tsv"))
    if not triple_files:
        raise KgDataError(f"no triples_*.tsv files under {data_dir}")
    relations = RelationVocab()
    kgs = [parse_triples(f, f.stem.removeprefix("triples_"), relations) for f in triple_files]
    multikg = MultiKg(kgs, relations)

    for kg in multikg.kgs:
        for split in ("train", "valid", "test"):
            split_path = data_dir / f"kgc_{split}_{kg.id}.tsv"
            if split_path.exists():
                multikg.set_kgc_split(kg.id, split, _resolve_split_triples(split_path, kg))

    for seed_path in sorted(data_dir.glob("seeds_*.tsv")):
        name = seed_path.stem.removeprefix("seeds_")
        for left in multikg.by_id:
            suffix = f"{left}_"
            if name.startswith(suffix) and name.removeprefix(suffix) in multikg.by_id:
                pair = (left, name.removeprefix(suffix))
                multikg.seed_sets[pair], multikg.seeds_skipped["|".join(pair)] = parse_seeds(
                    seed_path, *(multikg.by_id[kg_id] for kg_id in pair))
                break
        else:
            raise KgDataError(f"seed file {seed_path.name} does not match any KG pair")

    vectors = data_dir / "vectors.tsv"
    if vectors.exists():
        multikg.vector_coverage = load_initial_vectors(vectors, multikg)
    return multikg


# ---------------------------------------------------------------------------
# serialization


def write_transfer_sidecar(kg: Kg, path: Path) -> None:
    """Transferred triples only, ordered by (epoch, head, relation, tail):
    head<TAB>relation<TAB>tail<TAB>epoch."""
    rows, epochs = kg.transferred, kg.transfer_epochs
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0], epochs))
    lines = [f"{kg.entity_labels[h]}\t{kg.relations.labels[r]}\t{kg.entity_labels[t]}\t{epoch}"
             for (h, r, t), epoch in zip(rows[order].tolist(), epochs[order].tolist())]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
