"""One process of the benchmark. Modes:

  prepare  generate the seed's dataset and, for an eval workload, the
           checkpoint it reads; report the environment
  setup    interpreter start, imports and the workload's set-up, then exit
  work     set-up plus one timed repetition of the workload, with the
           output checks; `--trace` records spans around the program's calls

Each mode prints one JSON object as its last line of standard output.
run.py starts one such process at a time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from jointkg import alignment, evaluate, kgdata, synth, train  # noqa: E402
from jointkg.evaluate import overall_mean  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def in_unit_range(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def parameter_digest(parameters: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(parameters):
        values = np.ascontiguousarray(parameters[name])
        h.update(f"{name}:{values.dtype}:{values.shape};".encode())
        h.update(memoryview(values).cast("B"))
    return h.hexdigest()


class Paths:
    def __init__(self, work_dir: Path, workload, seed: int):
        self.data = work_dir / "data" / f"{workload.data_name}-seed{seed}"
        self.run = work_dir / "runs" / f"{workload.name}-seed{seed}"
        source = workload.checkpoint_from or workload.name
        self.checkpoint = work_dir / "runs" / f"{source}-seed{seed}" / "checkpoint.json"
        self.trace = work_dir / "traces" / f"{workload.name}-seed{seed}.json"


def train_config(workload, seed: int) -> train.TrainConfig:
    return train.TrainConfig(**workload.config, rng_seed=seed)


# ---------------------------------------------------------------------------
# prepare


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(ROOT),
    }


def prepare(workload, seed: int, paths: Paths) -> dict:
    marker = paths.data / ".complete"
    if not marker.exists():
        spec = synth.SynthSpec(**workload.data, rng_seed=seed)
        synth.write_dataset(synth.generate(spec), paths.data)
        marker.write_text("", encoding="utf-8")
    result = {"env": environment()}
    if workload.kind == "eval":
        try:
            checkpoint = train.Checkpoint.load(paths.checkpoint)
        except (OSError, ValueError, KeyError, train.TrainError):
            # no usable checkpoint from the train workload yet: train it the
            # same way, outside every timed region
            paths.checkpoint.parent.mkdir(parents=True, exist_ok=True)
            checkpoint = train.fit(kgdata.load_multikg(paths.data), train_config(workload, seed))
            checkpoint.save(paths.checkpoint)
            result["checkpoint_built"] = True
        result["checkpoint_digest"] = parameter_digest(checkpoint.parameters)
    return result


# ---------------------------------------------------------------------------
# set-up and work, in the order `jointkg train` / `jointkg eval` call them


def set_up(workload, paths: Paths) -> dict:
    if workload.kind == "train":
        return {"multikg": kgdata.load_multikg(paths.data)}
    checkpoint = train.Checkpoint.load(paths.checkpoint)
    multikg = kgdata.load_multikg(paths.data)
    return {"checkpoint": checkpoint, "multikg": multikg,
            "state": train.resume(checkpoint, multikg)}


def run_train(workload, seed: int, paths: Paths, ready: dict) -> dict:
    config = train_config(workload, seed)
    paths.run.mkdir(parents=True, exist_ok=True)
    start, cpu = time.perf_counter(), time.process_time()
    checkpoint = train.fit(ready["multikg"], config, log_lines=[])
    checkpoint.save(paths.run / "checkpoint.json")
    seconds, cpu = time.perf_counter() - start, time.process_time() - cpu

    check(in_unit_range(checkpoint.val_mrr), f"val_mrr {checkpoint.val_mrr} outside [0, 1]")
    check(0 <= checkpoint.epoch <= config.epochs, f"best epoch {checkpoint.epoch} out of range")
    check(all(np.all(np.isfinite(v)) for v in checkpoint.parameters.values()),
          "non-finite parameter in the checkpoint")
    return {"train_s": seconds, "cpu_s": cpu, "val_mrr": checkpoint.val_mrr,
            "checkpoint_digest": parameter_digest(checkpoint.parameters)}


def run_eval(workload, seed: int, paths: Paths, ready: dict) -> dict:
    checkpoint, multikg, state = ready["checkpoint"], ready["multikg"], ready["state"]
    out = paths.run
    out.mkdir(parents=True, exist_ok=True)
    start, cpu = time.perf_counter(), time.process_time()
    layers = state.completion_layers(tape=False)
    kgc = evaluate.evaluate_kgc(multikg, layers.entity_values(), layers.relation_values(),
                                split="test")
    finals, _ = state.alignment_layers_and_finals(tape=False)
    kga = evaluate.evaluate_kga(multikg, finals.values, state.test_seeds)
    matches = {}
    for pair in sorted(state.test_seeds):
        src, tgt, _, _ = state.pair_blocks(pair, finals.values)
        found = alignment.greedy_match(alignment.build_alignment_matrix(src, tgt, pair))
        alignment.write_matches(found, multikg.by_id[pair[0]].entity_labels,
                                multikg.by_id[pair[1]].entity_labels,
                                out / f"matches_{pair[0]}_{pair[1]}.tsv")
        matches[pair] = (found, min(len(src), len(tgt)))
    evaluate.write_results(out / "results.tsv", kgc, kga)
    seconds, cpu = time.perf_counter() - start, time.process_time() - cpu

    for kg in multikg.kgs:
        size = len(multikg.kgc_splits[kg.id]["test"])
        ranked = int(kgc[kg.id]["count"]) if kg.id in kgc else 0
        check(ranked == size, f"kgc ranked {ranked} of {size} test triples in {kg.id}")
    for pair, seed_set in state.test_seeds.items():
        ranked = int(kga[pair]["count"]) if pair in kga else 0
        check(ranked == len(seed_set.pairs),
              f"kga ranked {ranked} of {len(seed_set.pairs)} test pairs in {pair}")
    for scoped in (kgc, kga):
        for scope, values in scoped.items():
            for name, value in values.items():
                check(name == "count" or in_unit_range(value), f"{scope} {name} = {value}")
    for pair, (found, expected) in matches.items():
        check(len(found) == expected, f"{len(found)} matches for {pair}, expected {expected}")
        check(len({r for r, _, _ in found}) == len({c for _, c, _ in found}) == len(found),
              f"matches for {pair} are not one-to-one")
    outputs = json.dumps([sorted((f"{k}", v) for k, v in kgc.items()),
                          sorted((f"{k}", v) for k, v in kga.items()),
                          sorted((f"{k}", v[0]) for k, v in matches.items())])
    return {"eval_s": seconds, "cpu_s": cpu, "val_mrr": checkpoint.val_mrr,
            "test_kgc_mrr": overall_mean(kgc, "MRR"),
            "test_kga_hits1": overall_mean(kga, "Hits@1"),
            "checkpoint_digest": parameter_digest(checkpoint.parameters),
            "output_digest": hashlib.sha256(outputs.encode()).hexdigest()}


def work(workload, seed: int, paths: Paths, traced: bool) -> dict:
    recorder = spans.Recorder() if traced else None
    if recorder is not None:
        recorder.install()
    try:
        if recorder is not None:
            recorder.begin("perfbench.setup")
        ready = set_up(workload, paths)
        setup_end = time.monotonic()
        if recorder is not None:
            recorder.end()
            work_span = recorder.begin("perfbench.work")
        runner = run_train if workload.kind == "train" else run_eval
        result = runner(workload, seed, paths, ready)
        if recorder is not None:
            recorder.end()
    finally:
        if recorder is not None:
            recorder.restore()
    result["setup_end"] = setup_end
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if recorder is not None:
        seconds = result["train_s" if workload.kind == "train" else "eval_s"]
        # train: the named train.* phases plus the checkpoint save; eval: every call
        prefix = "train." if workload.kind == "train" else ""
        recorder.counts["trace.coverage"] = recorder.covered(work_span, prefix) / seconds
        result["layers"] = {m["name"]: {"value": recorder.value(m["name"]), "unit": m["unit"]}
                            for m in spans.PER_LAYER if m["name"] != "trace.overhead_s"}
        paths.trace.parent.mkdir(parents=True, exist_ok=True)
        recorder.write(paths.trace, {"workload": workload.name, "seed": seed})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "setup", "work"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload].sized(args.size)
    paths = Paths(args.work_dir, workload, args.seed)
    if Path(train.__file__).resolve().parent != ROOT / "src" / "jointkg":
        raise SystemExit(f"jointkg imported from {train.__file__}, not from {ROOT / 'src'}")
    try:
        if args.mode == "prepare":
            result = prepare(workload, args.seed, paths)
        elif args.mode == "setup":
            set_up(workload, paths)
            result = {"setup_end": time.monotonic()}
        else:
            result = work(workload, args.seed, paths, args.trace)
    except Exception as error:  # every failure is reported to run.py as one record
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": f"{type(error).__name__}: {error}"}))
        return 1
    print(json.dumps({"ok": True, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
