"""Self-check of the benchmark harness at tiny sizes (30 entities, dim 8,
one epoch), so it cannot rot:

    PYTHONPATH=src python -m pytest -q perfbench/test_selfcheck.py

It runs every workload untraced and traced and asserts that every metric
BENCHMARK.json names is emitted with its unit, that the report carries the
jointkg-facing names (train_s / eval_s, quality, error_rate), and that the
benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int, work_dir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace), "--size", "tiny",
         "--work-dir", str(work_dir)],
        cwd=root, capture_output=True, text=True, timeout=120)


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    expected = {0: units(SPEC["end_to_end"]), 1: units(SPEC["per_layer"])}
    work_name = "eval_s" if workload.startswith("eval") else "train_s"
    quality = (["val_mrr", "test_kgc_mrr", "test_kga_hits1"] if workload.startswith("eval")
               else ["val_mrr"])
    for trace in (0, 1):
        done = run(ROOT, workload, trace, tmp_path)
        assert done.returncode == 0, done.stderr
        *_, report_line, result_line = done.stdout.strip().splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected[trace]
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())

        report = json.loads(report_line)["report"]
        named = ([work_name] + (["setup_s", "peak_rss_mb"] if trace == 0 else [])
                 + quality + ["error_rate"])
        for name in named:
            assert report["metrics"][name]["unit"], name
        assert report["metrics"]["error_rate"]["value"] == 0.0
        assert {"nproc", "cpu_model", "caches", "python", "numpy", "blas", "blas_threads",
                "git_commit"} <= set(report["env"])
    assert result["metrics"]["trace.coverage"]["value"] > 0.0
    assert list(tmp_path.glob(f"*/traces/{workload}-seed3.json"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, WORKLOADS[0], 0, tmp_path / "work")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
