"""Command-line entry points: synth, train, eval, grid.

Every run writes a manifest (resolved configuration, input hashes, package
version, root seed, BLAS library and threads) to reproduce outputs bitwise.
A run's settings are its config file's, with `train`'s `--seed` and
`--ablation` flags on top, and nothing else. Errors print `error [<module>]:
<message>` (`[io]` for an unreadable or unwritable file) and exit 1.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import build_alignment_matrix, greedy_match, write_matches
from .errors import JointKgError, TrainError
from .evaluate import evaluate_kgc, kga_metrics, write_results
from .kgdata import MultiKg, load_multikg, write_transfer_sidecar
from .synth import SynthSpec, generate, write_dataset
from .train import Checkpoint, TrainConfig, fit, read_json, resume

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, settings: dict, inputs: list[Path],
                    seed: int | list[int], multikg: MultiKg | None = None) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "settings": settings,
        "inputs": {p.name: _sha256(p) for p in sorted(inputs)},
        "version": __version__,
        "rng_seed": seed,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }
    if multikg is not None:  # what loading the data counted
        manifest["data"] = {"duplicate_triples": {kg.id: kg.duplicate_count for kg in multikg.kgs},
                            "seeds_skipped": multikg.seeds_skipped,
                            "vector_coverage": multikg.vector_coverage}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _resolved_config(args) -> TrainConfig:
    data = read_json(args.config, "config file")
    if args.seed is not None:
        data["rng_seed"] = args.seed
    config = TrainConfig.from_dict(data)
    if args.ablation:
        config = replace(config, ablations=sorted(set(config.ablations) | set(args.ablation)))
    return config


def cmd_synth(args) -> int:
    spec = SynthSpec(entity_count=args.entities, relation_count=args.relations,
                     mean_degree=args.mean_degree, missing_rate=args.missing_rate,
                     seed_fraction=args.seed_fraction, rng_seed=args.seed)
    result = generate(spec)
    out_dir = Path(args.out)
    written = write_dataset(result, out_dir)
    _write_manifest(out_dir, "synth", spec.to_dict(), written, spec.rng_seed)
    print(f"wrote {len(written)} files to {out_dir}")
    return 0


def _data_inputs(data_dir: Path) -> list[Path]:
    return sorted(p for p in Path(data_dir).glob("*.tsv"))


def _fit_and_save(data_dir: Path, config: TrainConfig, out_dir: Path) -> Checkpoint:
    """Train on the data under `data_dir`, then write checkpoint.npz,
    events.jsonl, config.json, the selected checkpoint's transferred_<kg>.tsv
    sidecars (when ENTR runs) and the run's manifest."""
    multikg = load_multikg(data_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_lines: list[str] = []
    checkpoint = fit(multikg, config, log_lines=log_lines)
    checkpoint.save(out_dir / "checkpoint.npz")
    (out_dir / "events.jsonl").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    config.to_file(out_dir / "config.json")
    if config.entr_active:
        checkpoint.restore_transfers(multikg)
        for kg in multikg.kgs:
            write_transfer_sidecar(kg, out_dir / f"transferred_{kg.id}.tsv")
    _write_manifest(out_dir, "train", config.to_dict(), _data_inputs(data_dir),
                    config.rng_seed, multikg)
    return checkpoint


def cmd_train(args) -> int:
    checkpoint = _fit_and_save(Path(args.data), _resolved_config(args), Path(args.out))
    print(f"best epoch {checkpoint.epoch} with validation MRR {checkpoint.val_mrr:.4f}")
    return 0


def cmd_eval(args) -> int:
    checkpoint = Checkpoint.load(Path(args.checkpoint))
    multikg = load_multikg(Path(args.data))
    state = resume(checkpoint, multikg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    kgc_results = None
    kga_results = None
    if args.task in ("kgc", "both"):
        layers = state.completion_layers(tape=False)
        kgc_results = evaluate_kgc(multikg, layers.entity_values(), layers.relation_values(),
                                   split="test")
    if args.task in ("kga", "both"):
        finals, _ = state.alignment_layers_and_finals(tape=False)
        kga_results = {}
        for pair, seed_set in sorted(state.test_seeds.items()):
            src, tgt, _, _ = multikg.pair_blocks(pair, finals.values)
            matrix = build_alignment_matrix(src, tgt)
            if len(seed_set):
                kga_results[pair] = kga_metrics(matrix, seed_set)
            write_matches(greedy_match(matrix), multikg.by_id[pair[0]].entity_labels,
                          multikg.by_id[pair[1]].entity_labels,
                          out_dir / f"matches_{pair[0]}_{pair[1]}.tsv")
    summary = write_results(out_dir / "results.tsv", kgc_results, kga_results)
    _write_manifest(out_dir, "eval", {"task": args.task,
                                      "checkpoint": _sha256(Path(args.checkpoint))},
                    _data_inputs(args.data), checkpoint.config.rng_seed, multikg)
    print(summary)
    return 0


def cmd_grid(args) -> int:
    grid_spec = read_json(args.grid, "grid file")
    base = read_json(args.config, "config file")
    names = sorted(grid_spec)
    for name in names:
        if not (isinstance(grid_spec[name], list) and grid_spec[name]):
            wanted = "a non-empty list" if isinstance(grid_spec[name], list) else "a list"
            raise TrainError(f"grid file {args.grid}: {name} must map to {wanted} of values")
    out_dir = Path(args.out)

    combos = [dict(zip(names, values))
              for values in itertools.product(*(grid_spec[n] for n in names))]
    # every combination is validated before the first run trains
    configs = [TrainConfig.from_dict(base | combo) for combo in combos]
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for index, (combo, config) in enumerate(zip(combos, configs)):
        checkpoint = _fit_and_save(Path(args.data), config, out_dir / f"run_{index:03d}")
        rows.append((checkpoint.val_mrr, index, combo))
        print(f"run_{index:03d}: val MRR {checkpoint.val_mrr:.4f} {combo}")

    rows.sort(key=lambda r: (-r[0], r[1]))
    lines = ["val_mrr\trun\tsettings"]
    lines += [f"{mrr:.6f}\trun_{index:03d}\t{json.dumps(settings, sort_keys=True)}"
              for mrr, index, settings in rows]
    (out_dir / "leaderboard.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "grid", {"grid": grid_spec, "base": base},
                    _data_inputs(args.data), [config.rng_seed for config in configs])
    print(f"leaderboard written to {out_dir / 'leaderboard.tsv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointkg",
        description="Joint multilingual KG completion and alignment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic KG pair")
    synth.add_argument("--out", required=True)
    synth.add_argument("--entities", type=int, default=200)
    synth.add_argument("--relations", type=int, default=3)
    synth.add_argument("--mean-degree", type=float, default=4.0)
    synth.add_argument("--missing-rate", type=float, default=0.0)
    synth.add_argument("--seed-fraction", type=float, default=0.3)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=cmd_synth)

    train = sub.add_parser("train", help="train and select the best checkpoint")
    train.add_argument("--config", required=True)
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--ablation", action="append", default=[],
                       help="ablation flag (repeatable)")
    train.add_argument("--seed", type=int, default=None, help="override rng_seed")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="evaluate a checkpoint")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--out", required=True)
    evaluate.add_argument("--task", choices=("kgc", "kga", "both"), default="both")
    evaluate.set_defaults(func=cmd_eval)

    grid = sub.add_parser("grid", help="train over a config grid and rank results")
    grid.add_argument("--grid", required=True, help="JSON file: field -> list of values")
    grid.add_argument("--config", required=True, help="base config file")
    grid.add_argument("--data", required=True)
    grid.add_argument("--out", required=True)
    grid.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except JointKgError as error:
        print(f"error [{error.module}]: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error [io]: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
