"""Smoke test of the benchmark at a tiny length.

    python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.load_package()

import entcert as ec  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    report = run.run("certify_cli", seed=3, seconds=0.01, trace=False, min_rounds=1)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {**run.END_TO_END, **run.REPORT_ONLY}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["wall"]) == {"setup_s", "ops_per_s", "latency_p50_s", "ref_s_p50", "ref_s_quartiles"}
    assert report["wall"]["ref_s_p50"] > 0
    assert set(report["env"]) == {"nproc", "python", "numpy", "blas", "blas_threads", "loadavg"}


def test_traced_run_emits_every_per_layer_metric():
    report = run.run("oracle_mixed", seed=3, seconds=0.01, trace=True, min_rounds=1)
    metrics = report["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    assert metrics["oracle.dsep_upper.calls"]["value"] == len(workloads.ROUND_DIMS)
    assert metrics["trace.overhead_ratio"]["value"] > 0
    cli = run.run("certify_cli", seed=3, seconds=0.01, trace=True, min_rounds=1)["result"]["metrics"]
    assert cli["cli.main.calls"]["value"] == cli["states.load_state.calls"]["value"] > 0
    assert cli["cli.glue_s"]["value"] > 0


def test_wrong_oracle_value_counts_as_failed_op():
    def wrong_dsep_upper(rho, cfg):
        result = ec.dsep_upper(rho, dataclasses.replace(cfg, restarts=1, max_iters=5))
        return dataclasses.replace(result, dsep_upper=result.dsep_upper + 1e-6)

    wl = workloads.WORKLOADS["oracle_mixed"]()
    wl.dsep_upper = wrong_dsep_upper
    report = run.run("oracle_mixed", seed=3, seconds=0.01, trace=False, wl=wl, min_rounds=1)
    assert report["result"]["failed"] == report["result"]["attempted"] == len(workloads.ROUND_DIMS)
    assert not report["result"]["correct"]
    assert report["metrics"]["fail_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify_cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
