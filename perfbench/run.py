"""The jointkg benchmark.

    python3 perfbench/run.py --workload train-c6 --seed 1 --seconds 15 --trace 0

Runs one workload (see workloads.py) on inputs generated from --seed and
prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it is a
report with the environment, every sample and every output check.

Closed loop, one process at a time: after a `prepare` process has generated
the inputs, each repetition runs in a fresh worker process, so its peak
resident memory is its own. BLAS runs on one thread.

--trace 0: SETUP_PROBES set-up-only processes, then timed repetitions
    until --seconds of work have been measured. Metrics: setup_s (median
    over all set-ups), work_s (median; fit + Checkpoint.save on train
    workloads, evaluation + greedy matching on eval-3k) and peak_rss_mb
    (median).
--trace 1: one untraced and one traced repetition. Metrics: the per-layer
    numbers of the traced one (spans.PER_LAYER), its coverage of work_s and
    the tracing overhead, traced minus untraced work_s.

A repetition fails when it raises, its checks fail, or its digests differ
from those of earlier repetitions of the same workload, seed and source
tree (kept in the work directory, never frozen in the benchmark).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 6
DEADLINE_S = 170.0
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Registry:
    """Digests of earlier repetitions, keyed by workload, seed and digest kind."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def agree(self, key: str, digest: str) -> bool:
        """Record `digest` under `key` if new; False if it differs from the record."""
        recorded = self.known.setdefault(key, digest)
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        return recorded == digest


class Runner:
    def __init__(self, args, workload, work_dir: Path):
        self.args = args
        self.workload = workload
        self.work_dir = work_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.errors: list[str] = []
        self.env = dict(os.environ, **ENV_PINS)
        self.work_name = "train_s" if workload.kind == "train" else "eval_s"

    def child(self, mode: str, traced: bool = False) -> dict | None:
        """Run one worker process to completion; its record, or None on failure."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.attempted += 1
            self.errors.append(f"{mode}: no time left before the run's deadline")
            return None
        self.attempted += 1
        command = [sys.executable, str(WORKER), mode, "--workload", self.workload.name,
                   "--seed", str(self.args.seed), "--size", self.args.size,
                   "--work-dir", str(self.work_dir)] + (["--trace"] if traced else [])
        started = time.monotonic()
        try:
            done = subprocess.run(command, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode}: timed out")
            return None
        lines = done.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            record = {}
        if done.returncode != 0 or not record.get("ok"):
            self.errors.append(f"{mode}: exit {done.returncode}: {record.get('error', '')}")
            return None
        if "setup_end" in record:
            record["setup_s"] = record["setup_end"] - started
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-check's sizes")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench_work",
                        help="where inputs, checkpoints, traces and digests go")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "jointkg" / "__init__.py").is_file():
        print(f"error: no jointkg sources under {src}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    tree = source_digest(src)
    work_dir = args.work_dir / f"{args.size}-{tree[:16]}"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, workload, work_dir)
    registry = Registry(work_dir / "digests.json")

    def agree(record: dict) -> bool:
        for kind in ("checkpoint", "output"):
            if f"{kind}_digest" not in record:
                continue
            owner = workload.checkpoint_from if kind == "checkpoint" else None
            key = f"{owner or workload.name}|{args.seed}|{kind}"
            if not registry.agree(key, record[f"{kind}_digest"]):
                runner.errors.append(f"{kind} digest differs from earlier runs ({key})")
                return False
        return True

    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "size": args.size, "source_sha256": tree, "data": workload.data,
              "config": workload.config}
    prepared = runner.child("prepare")
    if prepared is None or not agree(prepared):
        metrics, named, reps = {}, {}, []
    else:
        report["env"] = prepared["env"]
        measure = measure_traced if args.trace else measure_untraced
        metrics, named, reps = measure(runner, agree, args.seconds, report)
    if reps:
        for name in ("val_mrr", "test_kgc_mrr", "test_kga_hits1"):
            if name in reps[-1]:
                named[name] = {"value": reps[-1][name], "unit": "1"}
        report["digests"] = {k: v for k, v in reps[-1].items() if k.endswith("_digest")}
    attempted = max(runner.attempted, 1)
    failed = len(runner.errors)
    named["error_rate"] = {"value": failed / attempted, "unit": "fraction"}
    report.update(metrics=named, attempted=attempted, failed=failed, errors=runner.errors)
    print(json.dumps({"report": report}))
    if not metrics:
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def measure_untraced(runner: Runner, agree, seconds: float, report: dict):
    """Set-up probes and timed repetitions. Returns the end-to-end metrics,
    the same numbers under their jointkg names, and the repetitions."""
    work_name = runner.work_name
    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.child("setup")
        if probe is not None:
            setups.append(probe["setup_s"])
    reps: list[dict] = []
    while sum(r[work_name] for r in reps) < seconds:
        rep = runner.child("work")
        if rep is None or not agree(rep):
            break
        reps.append(rep)
        setups.append(rep["setup_s"])
    if not reps:
        return {}, {}, reps
    samples = {"setup_s": setups, work_name: [r[work_name] for r in reps],
               work_name.replace("_s", "_cpu_s"): [r["cpu_s"] for r in reps],
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    report["samples"] = samples
    medians = {name: statistics.median(values) for name, values in samples.items()}
    metrics = {
        "setup_s": {"value": medians["setup_s"], "unit": "s"},
        "work_s": {"value": medians[work_name], "unit": "s"},
        "work_cpu_s": {"value": medians[work_name.replace("_s", "_cpu_s")], "unit": "s"},
        "peak_rss_mb": {"value": medians["peak_rss_mb"], "unit": "MB"},
    }
    named = {name: {"value": medians[name], "unit": "MB" if name == "peak_rss_mb" else "s"}
             for name in samples}
    return metrics, named, reps


def measure_traced(runner: Runner, agree, seconds: float, report: dict):
    """One untraced and one traced repetition. Returns the per-layer metrics,
    the work times under their jointkg names, and the repetitions."""
    work_name = runner.work_name
    reps: list[dict] = []
    for traced in (False, True):
        rep = runner.child("work", traced=traced)
        # agree() holds the traced digests to the untraced ones recorded just
        # before: tracing must leave the program's results bit-identical
        if rep is None or not agree(rep):
            return {}, {}, reps
        reps.append(rep)
    untraced, traced = reps
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = {"value": traced[work_name] - untraced[work_name],
                                   "unit": "s"}
    named = {work_name: {"value": untraced[work_name], "unit": "s"},
             "traced_" + work_name: {"value": traced[work_name], "unit": "s"}}
    return metrics, named, reps


if __name__ == "__main__":
    sys.exit(main())
