"""Tier-1 smoke test for the repo benchmark.

Validates ``BENCHMARK.json`` and ``interactions.json`` against each other and
runs every workload once at ``--smoke`` size, traced, so a change that breaks
a wrapped entry point, a check or a metric name fails here and not in the
first real measurement.  It measures nothing: sizes are seconds-scale.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*arguments: str) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=110,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout.splitlines()[-1])


def test_manifest_is_valid():
    spec = _manifest()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    spec = _manifest()
    interactions = json.loads((HERE / "interactions.json").read_text())
    assert list(interactions) == [metric["name"] for metric in spec["per_layer"]]
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    workloads = {workload["name"] for workload in spec["workloads"]}
    for name, predicted in interactions.items():
        assert set(predicted) == {"moves", "no_move"}, name
        pairs = predicted["moves"] + predicted["no_move"]
        assert pairs, f"{name} predicts nothing"
        for metric, workload in pairs:
            assert metric in end_to_end and workload in workloads, (name, metric, workload)


def test_smoke_run_of_every_workload():
    spec = _manifest()
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    results = _run("--smoke", "--trace", "1")
    assert list(results) == [workload["name"] for workload in spec["workloads"]]
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    # The bypass predictions hold even at smoke size.
    assert results["compare_suites"]["metrics"]["rl.update.calls"]["value"] == 0
    assert results["train_warm_joint"]["metrics"]["cache.ppo_misses"]["value"] == 0
    assert results["train_warm_joint"]["metrics"]["simulator.simulate_in_ppo.calls"]["value"] == 0
    assert results["serve_inproc"]["metrics"]["serving.codec.calls"]["value"] == 0
    assert results["serve_tcp"]["metrics"]["serving.codec.calls"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    spec = _manifest()
    result = _run("--smoke", "--trace", "0", "--workload", "compare_suites")
    assert result["correct"]
    assert list(result["metrics"]) == [metric["name"] for metric in spec["end_to_end"]]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
