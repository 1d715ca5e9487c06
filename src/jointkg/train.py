"""Alternating two-optimizer training.

Each epoch: (1) update the completion side on its ranking + seed-constraint
loss while the alignment side stays frozen, (2) update the alignment side on
its margin loss (completion embeddings enter the fusion as constants), then
(3) grow the seed sets and transfer triples. Model selection keeps the
checkpoint with the best validation completion MRR, ties to the earlier
epoch; under `no_comple`, where that MRR cannot improve, the last epoch.
One root seed drives every random draw, so runs reproduce bitwise.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import diff
from .alignment import (
    FusionParams,
    alignment_loss,
    build_alignment_matrix,
    final_embeddings,
    make_fusion_hook,
    nearest_negatives,
)
from .completion import alignment_constraint_loss, completion_loss, ranking_loss, sample_negatives
from .entr import enlarge_seeds, matrix_entropy, prune_stale_transfers, seed_budget, transfer_triples
from .errors import KgDataError, TrainError
from .evaluate import evaluate_kgc, overall_mean
from .kgdata import ENLARGED, MultiKg, SeedSet, split_seeds, triple_keys
from .rgnn import EncoderParams, LayerEmbeddings, build_edges, encode
from .seeding import substream

ABLATIONS = ("no_ra_gnn", "one_gnn", "no_sir", "no_entr", "no_align", "no_comple")
CHECKPOINT_VERSION = 4
# annotation -> (accepted type, its name in errors); a bool is no int or float here
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}


@dataclass
class TrainConfig:
    layers: int = 2
    dim: int = 128
    lr_completion: float = 1e-3
    lr_alignment: float = 1e-3
    beta: float = 0.2
    gamma_completion: float = 5.0
    gamma_alignment: float = 5.0
    epochs: int = 30
    negatives_per_positive: int = 5
    nearest_neighbor_negatives: int = 5
    si_mode: str = "without"
    ablations: tuple[str, ...] = ()
    rng_seed: int = 0
    steps_per_epoch: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _FIELD_KINDS:
                kind, wanted = _FIELD_KINDS[f.type]
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise TrainError(f"{f.name} must be {wanted}, got {value!r}")
        if (not isinstance(self.ablations, (list, tuple))
                or not all(isinstance(flag, str) for flag in self.ablations)):
            raise TrainError(f"ablations must be a list of strings, got {self.ablations!r}")
        self.ablations = tuple(self.ablations)
        for name in ("lr_completion", "lr_alignment"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise TrainError(f"{name} must be finite and above 0, got {value}")
        for name in ("gamma_completion", "gamma_alignment"):
            if not math.isfinite(getattr(self, name)):
                raise TrainError(f"{name} must be finite, got {getattr(self, name)}")
        for name, least in (("rng_seed", 0), ("layers", 0), ("epochs", 0), ("dim", 1),
                            ("steps_per_epoch", 1), ("negatives_per_positive", 1),
                            ("nearest_neighbor_negatives", 1)):
            if getattr(self, name) < least:
                raise TrainError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0.0 <= self.beta <= 1.0:
            raise TrainError(f"beta must lie in [0, 1], got {self.beta}")
        if self.si_mode not in ("with", "without"):
            raise TrainError(f"si_mode must be 'with' or 'without', got {self.si_mode!r}")
        for flag in self.ablations:
            if flag not in ABLATIONS:
                raise TrainError(f"unknown ablation flag {flag!r}; known: {ABLATIONS}")

    def flag(self, name: str) -> bool:
        return name in self.ablations

    @property
    def sir_active(self) -> bool:
        return not (self.flag("no_sir") or self.flag("one_gnn") or self.flag("no_comple"))

    @property
    def entr_active(self) -> bool:
        return not (self.flag("no_entr") or self.flag("no_align"))

    def to_dict(self) -> dict:
        """Field values ready for JSON (ablations as a list)."""
        return ({f.name: getattr(self, f.name) for f in fields(self)}
                | {"ablations": list(self.ablations)})

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """A config from a dict that names every field and no other."""
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise TrainError(f"unknown config field: {sorted(unknown)[0]}")
        missing = names - set(data)
        if missing:
            raise TrainError(f"missing config field: {sorted(missing)[0]}")
        return cls(**data)

    def to_file(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def read_json(path: Path, what: str) -> dict:
    """Parse a JSON file that holds an object; a missing, non-UTF-8 or
    malformed file, or one holding any other JSON value, raises TrainError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise TrainError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise TrainError(f"{what} {path} is not UTF-8 text: byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise TrainError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise TrainError(f"{what} {path} must hold a JSON object, not {type(data).__name__}")
    return data


class JointModel:
    """Both encoders, the fusion MLPs and the final entity head (an `Mlp`
    from the (K+1)*dim layer stack to dim, named `heads/entity/*`).

    Every block is created in a fixed order from the init stream regardless
    of ablation flags, so variants of one seed start from identical values.
    Under si_mode "with", the rows of both encoders' layer-0 tables that
    have a surface-information vector then take it; all else is as "without".
    """

    def __init__(self, config: TrainConfig, multikg: MultiKg):
        if config.si_mode == "with" and multikg.vector_dim is None:
            raise TrainError("si_mode 'with' needs a loaded vector file")
        if config.si_mode == "with" and multikg.vector_dim != config.dim:
            raise TrainError(
                f"si vectors have dimension {multikg.vector_dim}, config dim is {config.dim}"
            )
        rng = substream(config.rng_seed, "init")
        relation_aware = not config.flag("no_ra_gnn")
        self.completion_encoder, self.alignment_encoder = (
            EncoderParams.create(config.layers, config.dim, multikg.total_entities,
                                 len(multikg.relations), rng, relation_aware=relation_aware)
            for _ in range(2))
        self.fusion = FusionParams.create(config.layers, config.dim, rng)
        self.entity_head = diff.Mlp.create(
            [(config.layers + 1) * config.dim, config.dim, config.dim],
            ("leakyrelu", "identity"), rng)
        self.one_gnn = config.flag("one_gnn")
        if config.si_mode == "with":
            for encoder in (self.completion_encoder, self.alignment_encoder):
                for row, vector in multikg.entity_vectors.items():
                    encoder.entity0.values[row] = vector
                for row, vector in multikg.relation_vectors.items():
                    encoder.relation0.values[row] = vector

    @property
    def alignment_side_encoder(self) -> EncoderParams:
        return self.completion_encoder if self.one_gnn else self.alignment_encoder

    def completion_parameters(self) -> list[diff.Tensor]:
        return self.completion_encoder.parameters()

    def alignment_parameters(self) -> list[diff.Tensor]:
        if self.one_gnn:
            return self.entity_head.parameters()
        return (self.alignment_encoder.parameters() + self.fusion.parameters()
                + self.entity_head.parameters())

    def named_parameters(self) -> list[tuple[str, diff.Tensor]]:
        return (self.completion_encoder.named_parameters("completion")
                + self.alignment_encoder.named_parameters("alignment")
                + self.fusion.named_parameters("fusion")
                + self.entity_head.named_parameters("heads/entity"))


class TrainState:
    def __init__(self, multikg: MultiKg, config: TrainConfig):
        self.multikg = multikg
        self.config = config
        self.model = JointModel(config, multikg)
        self.adam_completion = diff.Adam(self.model.completion_parameters(),
                                         lr=config.lr_completion)
        self.adam_alignment = diff.Adam(self.model.alignment_parameters(),
                                        lr=config.lr_alignment)
        self.h_tilde: dict[tuple[str, str], float] = {}  # pre-training entropy per pair
        self.epoch = 0
        self.step_in_epoch = 0
        self.train_seeds: dict[tuple[str, str], SeedSet] = {}
        self.test_seeds: dict[tuple[str, str], SeedSet] = {}
        for pair, seed_set in sorted(multikg.seed_sets.items()):
            train, test = split_seeds(seed_set, config.rng_seed)
            self.train_seeds[pair] = train
            self.test_seeds[pair] = test
        self.edges = build_edges(multikg)
        self._untaped: tuple[int, tuple, LayerEmbeddings] | None = None  # (t, inputs, layers)

    # ---- forward helpers -------------------------------------------------

    def completion_layers(self, tape: bool) -> LayerEmbeddings:
        """The completion encoder's layers over the current edges.

        The untaped result is kept and returned again while its inputs stay
        put: the same `edges` object, the same `adam_completion.t` and the
        same array in every completion parameter (`resume` rebinds them).
        Only Adam writes parameters in place, and every step moves `t`;
        `entr_step` makes new edges when the triples change. A taped encode
        drops the kept layers, since a completion step follows.
        """
        if tape:
            self._untaped = None
            return encode(self.edges, self.model.completion_encoder)
        t = self.adam_completion.t
        inputs = (self.edges, *(p.values for p in self.model.completion_parameters()))
        kept = self._untaped
        if kept is None or kept[0] != t or not all(map(operator.is_, kept[1], inputs)):
            with diff.no_grad():
                kept = self._untaped = t, inputs, encode(self.edges, self.model.completion_encoder)
        return kept[2]

    def fusion_hook(self):
        """SIR hook wrapping the kept untaped completion layers (or None)."""
        if not self.config.sir_active:
            return None
        return make_fusion_hook(self.completion_layers(tape=False), self.model.fusion)

    def alignment_layers_and_finals(self, tape: bool):
        """Alignment-side finals over `fusion_hook()`'s kept completion layers."""
        with nullcontext() if tape else diff.no_grad():
            layers = encode(self.edges, self.model.alignment_side_encoder, self.fusion_hook())
            return final_embeddings(layers, self.model.entity_head)

    def pair_blocks(self, pair: tuple[str, str], finals: np.ndarray):
        return self.multikg.pair_blocks(pair, finals)

    # ---- loss assembly ---------------------------------------------------

    def completion_step(self) -> dict[str, float]:
        """One completion update; returns `loss`, `ranking` and `constraint`.

        A KG's positives are its loaded training triples, then its
        transferred triples. Corruptions of its loaded positives come from a
        stream keyed by (kg, epoch, step); those of its transferred positives
        come from the same key extended by "transferred". So runs that differ
        only in transferred triples draw identical corruptions for every
        loaded positive, which keeps ablation comparisons paired. Both draws
        avoid every training triple of the KG, transferred ones included. The
        one exception to the pairing: a draw for a loaded positive that hits
        a transferred triple is rejected, so that KG's re-draws in later
        rejection rounds of this step differ between the runs; corruptions
        accepted before then stay identical.
        """
        self.step_in_epoch += 1
        layers = self.completion_layers(tape=True)
        # per KG and stream: heads, relations, tails, then the negatives' heads,
        # relations, tails and positive index
        blocks = []
        base = 0
        for kg in self.multikg.kgs:
            loaded = self.multikg.kgc_splits[kg.id]["train"]
            offset = self.multikg.entity_offset(kg.id)
            known = np.unique(triple_keys(np.concatenate([loaded, kg.transferred]),
                                          kg.entity_count))
            for positives, stream in ((loaded, ()), (kg.transferred, ("transferred",))):
                if len(positives) == 0:
                    continue
                rng = substream(self.config.rng_seed, "negatives", kg.id,
                                f"epoch{self.epoch}", f"step{self.step_in_epoch}", *stream)
                nh, nr, nt, np_of = sample_negatives(
                    positives, kg.entity_count, known,
                    self.config.negatives_per_positive, rng)
                blocks.append((positives[:, 0] + offset, positives[:, 1], positives[:, 2] + offset,
                               nh + offset, nr, nt + offset, np_of + base))
                base += len(positives)
        if not blocks:
            raise TrainError("no completion training triples in any KG")
        columns = tuple(np.concatenate(column) for column in zip(*blocks))
        ranking = ranking_loss(columns[:3], columns[3:], self.config.gamma_completion, layers)
        offset_of = self.multikg.entity_offset
        seed_pairs = np.concatenate([np.empty((0, 2), dtype=np.int64)] + [
            self.train_seeds[pair].pairs + (offset_of(pair[0]), offset_of(pair[1]))
            for pair in sorted(self.train_seeds)])
        constraint = alignment_constraint_loss(seed_pairs, layers)
        return {"loss": self.optimizer_step(completion_loss(ranking, constraint),
                                            self.adam_completion, "completion"),
                "ranking": ranking.item(), "constraint": constraint.item()}

    def alignment_step(self) -> float:
        """One alignment update; returns its loss, summed over seeded pairs."""
        entity_finals, _ = self.alignment_layers_and_finals(tape=True)
        total = None
        for pair in sorted(self.train_seeds):
            seed_set = self.train_seeds[pair]
            if len(seed_set) == 0:
                continue
            src, tgt, off_l, off_r = self.pair_blocks(pair, entity_finals.values)
            negatives = nearest_negatives(
                seed_set.pairs, src, tgt, self.config.nearest_neighbor_negatives)
            pair_loss = alignment_loss(seed_set.pairs + (off_l, off_r),
                                       negatives + (0, off_l, off_r),
                                       self.config.gamma_alignment, entity_finals)
            total = pair_loss if total is None else diff.add(total, pair_loss)
        if total is None:
            raise TrainError("no alignment seed pairs available")
        return self.optimizer_step(total, self.adam_alignment, "alignment")

    def optimizer_step(self, loss: diff.Tensor, adam: diff.Adam, side: str) -> float:
        """Check `loss` is finite, backpropagate it, update `side`'s parameters
        with `adam`, then clear both sides' gradients; returns the loss."""
        value = loss.item()
        if not np.isfinite(value):
            raise TrainError(f"non-finite {side} loss at epoch {self.epoch}: {value}")
        diff.backward(loss)
        adam.step()
        self.adam_completion.zero_grad()
        self.adam_alignment.zero_grad()
        return value

    def pair_finals(self):
        """Yield each seeded pair and its KGs' rows of the untaped alignment
        finals."""
        entity_finals, _ = self.alignment_layers_and_finals(tape=False)
        for pair in sorted(self.train_seeds):
            yield pair, *self.pair_blocks(pair, entity_finals.values)[:2]

    def entr_step(self) -> dict:
        """Grow each pair's seeds by its entropy budget, then prune and transfer
        triples; returns the record's `entr` entry (README lists its fields)."""
        pairs = {}
        for (a, b), src, tgt in self.pair_finals():
            entropy = matrix_entropy(src, tgt)
            q = seed_budget(self.h_tilde[a, b], entropy, self.config.beta, len(src), len(tgt))
            seeds = self.train_seeds[a, b] = enlarge_seeds(
                build_alignment_matrix(src, tgt) if q else None, q, self.train_seeds[a, b])
            enlarged = seeds.provenance.count(ENLARGED)
            pairs[f"{a}|{b}"] = {"entropy": entropy, "h_tilde": self.h_tilde[a, b], "budget": q,
                                 "given": len(seeds) - enlarged, "enlarged": enlarged}
        pruned = prune_stale_transfers(self.multikg, self.train_seeds)
        transferred = transfer_triples(
            [self.train_seeds[pair] for pair in sorted(self.train_seeds)], self.multikg, self.epoch)
        if pruned or transferred:
            self.edges = build_edges(self.multikg)
        return {"pairs": pairs, "pruned": pruned, "transferred": transferred}

    def initialize_entropy_baseline(self) -> None:
        """Entropy of the untrained model's alignment matrices (run once)."""
        for pair, src, tgt in self.pair_finals():
            self.h_tilde[pair] = matrix_entropy(src, tgt)


def train_epoch(state: TrainState) -> dict:
    """One epoch: steps_per_epoch completion updates with the alignment side
    frozen, then steps_per_epoch alignment updates with the completion side
    frozen (its freshly updated embeddings enter the fusion as constants),
    then seed enlargement and triple transfer. Returns the epoch's record
    without `version` and `val_mrr`: `epoch` and an entry for each phase that
    ran (`completion` and `alignment`: the losses of its last step; `entr`)."""
    config = state.config
    state.epoch += 1
    state.step_in_epoch = 0
    record = {"epoch": state.epoch}
    if not config.flag("no_comple"):
        for _ in range(config.steps_per_epoch):
            record["completion"] = state.completion_step()
    if not config.flag("no_align"):
        for _ in range(config.steps_per_epoch):
            record["alignment"] = {"loss": state.alignment_step()}
        if config.entr_active:
            record["entr"] = state.entr_step()
    return record


def validation_mrr(state: TrainState) -> float:
    """Completion MRR on the validation split, averaged per KG."""
    layers = state.completion_layers(tape=False)
    results = evaluate_kgc(state.multikg, layers.entity_values(), layers.relation_values(),
                           split="valid")
    if not results:
        raise TrainError("empty validation split")
    return overall_mean(results, "MRR")


def fit(multikg: MultiKg, config: TrainConfig, log_lines: list[str] | None = None
        ) -> "Checkpoint":
    """Train up to config.epochs epochs and return the checkpoint with the
    highest validation MRR (earlier epoch wins ties). Under `no_comple` the
    completion side never trains, so validation MRR cannot select, and the
    last epoch is kept. `log_lines` receives each epoch's record from the
    untrained epoch 0 (`train_epoch`'s, with `version` and `val_mrr`; epoch
    0 has no phases) as one line of sorted-key strict JSON."""
    state = TrainState(multikg, config)
    if config.entr_active:
        state.initialize_entropy_baseline()
    log = [] if log_lines is None else log_lines
    best = None
    for epoch in range(config.epochs + 1):
        record = train_epoch(state) if epoch else {"epoch": 0}
        record |= {"version": 1, "val_mrr": validation_mrr(state)}
        log.append(json.dumps(record, sort_keys=True, allow_nan=False))
        if best is None or record["val_mrr"] > best.val_mrr or config.flag("no_comple"):
            best = snapshot(state, record["val_mrr"])
    return best


# ---------------------------------------------------------------------------
# checkpointing


def _unpair(key: str) -> tuple[str, str]:
    return tuple(key.split("|"))


def _copy_seed_sets(seed_sets: dict[tuple[str, str], SeedSet]) -> dict[tuple[str, str], SeedSet]:
    return {pair: SeedSet(s.kg_pair, s.pairs.copy(), list(s.provenance))
            for pair, s in seed_sets.items()}


def _group(members: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The members named `<prefix>/<key>`, by key."""
    return {name[len(prefix) + 1:]: values for name, values in members.items()
            if name.startswith(prefix + "/")}


@dataclass
class Checkpoint:
    """Everything needed to evaluate or bit-identically resume a run, saved as
    one uncompressed `.npz` (version 4). Members `parameters/<name>`,
    `adam_<side>/m/<i>` and `adam_<side>/v/<i>` (the side's i-th moments),
    `train_seeds/<a>|<b>`, `test_seeds/<a>|<b>` and `transferred/<kg>` hold
    the arrays; the 0-d `meta` member holds the rest as sorted-key JSON."""

    config: TrainConfig
    vocab_hash: str
    epoch: int
    val_mrr: float
    parameters: dict[str, np.ndarray]
    adam_completion: dict
    adam_alignment: dict
    h_tilde: dict[tuple[str, str], float]
    train_seeds: dict[tuple[str, str], SeedSet]
    test_seeds: dict[tuple[str, str], SeedSet]
    transferred: dict[str, np.ndarray]  # per KG, (head, relation, tail, epoch) rows

    def save(self, path: Path) -> None:
        """Write the members in name order through an open handle (np.savez
        would add `.npz` to a path); its fixed timestamps make saves byte-equal."""
        adam = {side: getattr(self, side) for side in ("adam_completion", "adam_alignment")}
        seeds = {group: getattr(self, group) for group in ("train_seeds", "test_seeds")}
        meta = {"version": CHECKPOINT_VERSION, "config": self.config.to_dict(),
                "vocab_hash": self.vocab_hash, "epoch": self.epoch, "val_mrr": self.val_mrr,
                "t": {side: state["t"] for side, state in adam.items()},
                "h_tilde": {f"{a}|{b}": v for (a, b), v in self.h_tilde.items()},
                "provenance": {group: {f"{a}|{b}": s.provenance for (a, b), s in sets.items()}
                               for group, sets in seeds.items()}}
        members = {"meta": np.array(json.dumps(meta, sort_keys=True)),
                   **{f"parameters/{name}": values for name, values in self.parameters.items()},
                   **{f"{side}/{key}/{i}": moment for side, state in adam.items()
                      for key in ("m", "v") for i, moment in enumerate(state[key])},
                   **{f"{group}/{a}|{b}": s.pairs for group, sets in seeds.items()
                      for (a, b), s in sets.items()},
                   **{f"transferred/{kg}": rows for kg, rows in self.transferred.items()}}
        with open(path, "wb") as handle:
            np.savez(handle, **dict(sorted(members.items())))

    @classmethod
    def load(cls, path: Path) -> "Checkpoint":
        """Read a version-4 checkpoint. A missing or non-zip file (versions 1
        and 2 are JSON), a corrupt member, another version, a missing member
        or key, an undecodable value, a step count or epoch that is no
        integer >= 0, a `val_mrr` or entropy that is no number, non-integer
        seed or transfer ids or a seed set `SeedSet` rejects raises TrainError."""
        def moments(side: str, key: str) -> list[np.ndarray]:
            by_index = _group(members, f"{side}/{key}")
            return [by_index[str(i)] for i in range(len(by_index))]
        try:
            if not zipfile.is_zipfile(path):
                raise TrainError(f"checkpoint {path} is missing or not a version-"
                                 f"{CHECKPOINT_VERSION} checkpoint (.npz archive)")
            with np.load(path, allow_pickle=False) as archive:
                members = {name: archive[name] for name in archive.files}
            meta = json.loads(members["meta"].item())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise TrainError(f"unsupported checkpoint version {meta.get('version')}")
            for name, value in {"epoch": meta["epoch"],
                                **{f"t.{side}": t for side, t in meta["t"].items()}}.items():
                if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                    raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
            for name, value in {"val_mrr": meta["val_mrr"],
                                **{f"h_tilde.{k}": v for k, v in meta["h_tilde"].items()}}.items():
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"{name} must be a number, got {value!r}")
            for name, values in members.items():
                if name.startswith(("train_seeds/", "test_seeds/", "transferred/")) \
                        and values.dtype.kind not in "iu":
                    raise ValueError(f"{name} must hold integers, not {values.dtype}")
            adam = {side: {"t": meta["t"][side], "m": moments(side, "m"), "v": moments(side, "v")}
                    for side in ("adam_completion", "adam_alignment")}
            seeds = {group: {_unpair(k): SeedSet(_unpair(k), pairs, meta["provenance"][group][k])
                             for k, pairs in _group(members, group).items()}
                     for group in ("train_seeds", "test_seeds")}
            return cls(
                config=TrainConfig.from_dict(meta["config"]),
                vocab_hash=meta["vocab_hash"],
                epoch=meta["epoch"],
                val_mrr=meta["val_mrr"],
                parameters=_group(members, "parameters"),
                h_tilde={_unpair(k): v for k, v in meta["h_tilde"].items()},
                transferred={kg: np.asarray(rows, dtype=np.int64).reshape(-1, 4)
                             for kg, rows in _group(members, "transferred").items()},
                **adam, **seeds,
            )
        except KeyError as error:
            raise TrainError(f"checkpoint {path} is malformed: missing key {error}") from None
        except (AttributeError, TypeError, ValueError, zipfile.BadZipFile, KgDataError) as error:
            raise TrainError(f"checkpoint {path} is malformed: {error}") from None

    def restore_transfers(self, multikg: MultiKg) -> None:
        """Give every KG the checkpoint's transferred triples and epochs."""
        for kg in multikg.kgs:
            if kg.id not in self.transferred:
                raise _malformed(f"no transferred triples for {kg.id}")
            rows = self.transferred[kg.id]
            limits = (kg.entity_count, len(multikg.relations), kg.entity_count, np.inf)
            if np.any((rows < 0) | (rows >= limits)):
                raise _malformed(f"a transferred row of {kg.id} is out of range")
            kg.set_transferred(rows[:, :3], rows[:, 3])


def _malformed(reason: str) -> TrainError:
    return TrainError(f"checkpoint is malformed: {reason}")


def snapshot(state: TrainState, val_mrr: float) -> Checkpoint:
    return Checkpoint(
        config=state.config,
        vocab_hash=state.multikg.vocab_hash(),
        epoch=state.epoch,
        val_mrr=val_mrr,
        parameters={name: tensor.values.copy()
                    for name, tensor in state.model.named_parameters()},
        adam_completion=state.adam_completion.state_dict(),
        adam_alignment=state.adam_alignment.state_dict(),
        h_tilde=dict(state.h_tilde),
        train_seeds=_copy_seed_sets(state.train_seeds),
        test_seeds=_copy_seed_sets(state.test_seeds),
        transferred={kg.id: np.column_stack([kg.transferred, kg.transfer_epochs])
                     for kg in state.multikg.kgs},
    )


def resume(checkpoint: Checkpoint, multikg: MultiKg) -> TrainState:
    """Rebuild a TrainState that continues the checkpointed run bitwise.

    The multikg must be freshly loaded from the same data the checkpoint was
    trained on: its vocab hash is verified, seed pairs, transferred rows,
    parameters and Adam moments are checked against the data and the model,
    and a non-finite parameter, moment or pre-training entropy is refused.

    The state takes the checkpoint's parameter and moment arrays (only a
    non-float64, non-C-contiguous or read-only one is copied), so training it
    changes `checkpoint.parameters` and the checkpoint's moments. For a second
    independent run, load or snapshot the checkpoint again.
    """
    if multikg.vocab_hash() != checkpoint.vocab_hash:
        raise TrainError("checkpoint/data mismatch")
    for seed_sets in (checkpoint.train_seeds, checkpoint.test_seeds):
        for pair, seed_set in seed_sets.items():
            if pair not in multikg.seed_sets:
                raise _malformed(f"seeds for {pair}, which is no seeded KG pair of the data")
            if checkpoint.config.entr_active and pair not in checkpoint.h_tilde:
                raise _malformed(f"no pre-training entropy for {pair}")
            counts = [multikg.by_id[kg_id].entity_count for kg_id in pair]
            if np.any((seed_set.pairs < 0) | (seed_set.pairs >= counts)):
                raise _malformed(f"a seed pair of {pair} names an entity outside its KG")
    for pair in sorted(multikg.seed_sets):
        if pair not in checkpoint.train_seeds or pair not in checkpoint.test_seeds:
            raise _malformed(f"no seeds for {pair}, a seeded KG pair of the data")
    if not np.isfinite(list(checkpoint.h_tilde.values())).all():
        raise _malformed("a pre-training entropy holds a non-finite value")
    checkpoint.restore_transfers(multikg)
    state = TrainState(multikg, checkpoint.config)
    named = dict(state.model.named_parameters())
    if set(named) != set(checkpoint.parameters):
        raise TrainError("checkpoint parameters do not match the model layout")
    for name, tensor in named.items():
        saved = checkpoint.parameters[name]
        if saved.shape != tensor.values.shape:
            raise _malformed(f"parameter {name} has shape {saved.shape}, "
                             f"the model's has {tensor.values.shape}")
        if not np.isfinite(saved).all():
            raise _malformed(f"parameter {name} holds a non-finite value")
        tensor.values = np.require(saved, np.float64, ("C", "A", "W"))
    for adam, saved in ((state.adam_completion, checkpoint.adam_completion),
                        (state.adam_alignment, checkpoint.adam_alignment)):
        shapes = [p.values.shape for p in adam.params]
        if any([moment.shape for moment in saved[key]] != shapes for key in ("m", "v")):
            raise _malformed("an Adam moment does not match its parameter's shape")
        if not all(np.isfinite(moment).all() for key in ("m", "v") for moment in saved[key]):
            raise _malformed("an Adam moment holds a non-finite value")
        adam.load_state_dict(saved)
    state.h_tilde = dict(checkpoint.h_tilde)
    state.epoch = checkpoint.epoch
    state.train_seeds = _copy_seed_sets(checkpoint.train_seeds)
    state.test_seeds = _copy_seed_sets(checkpoint.test_seeds)
    return state
