"""The repo benchmark: train → compare → serve, one command.

    python3 benchmarks/e2e/run.py --workload train_cold --seed 0 --seconds 10 --trace 0

runs one workload and prints, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs and every metric
is printed by name with its unit.

A run is a sequence of *units*.  Each unit is ``worker.py`` in a fresh
interpreter (set-up, then one fixed-size measured phase) with BLAS pinned to
one thread; units repeat until the measured phases add up to ``--seconds``,
and the run reports the median over its units.  All units of a run share one
seed, so their deterministic counts must agree exactly — a difference is
reported as a benchmark bug.  A traced run alternates untraced and traced
units: tracing must not change any count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
WORK = os.path.join(ROOT, ".bench_e2e")

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_unit(workload: str, seed: int, size: str, traced: bool) -> dict:
    """One fresh-interpreter unit; raises if the worker crashes."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--size", size, "--workdir", workdir]
    if traced:
        command.append("--traced")
    try:
        spawned = time.monotonic()
        child = subprocess.run(command, env={**os.environ, **PINNED}, cwd=ROOT,
                               capture_output=True, text=True, timeout=170)
        if child.returncode != 0:
            raise RuntimeError(f"{workload} worker exited {child.returncode}:\n{child.stderr[-2000:]}")
        unit = json.loads(child.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Interpreter start, imports, input generation, store pre-fill,
    # serving-policy training and warm-up all land here; like the measured
    # phase it is reported at reference speed (hostspeed.py).
    unit["setup_s"] = unit["measure_started"] - spawned - unit["setup_excess_s"]
    unit["traced"] = traced
    return unit


def run_workload(workload: str, seed: int, seconds: float, size: str, trace: bool) -> dict:
    units: List[dict] = []
    measured = 0.0
    smoke = size == "smoke"  # one unit, traced if tracing: exercises the harness only
    while not units or (not smoke and (measured < seconds or (trace and len(units) < 2))):
        units.append(run_unit(workload, seed, size,
                              traced=trace and (smoke or len(units) % 2 == 1)))
        measured += units[-1]["wall_s"]

    problems = [problem for unit in units for problem in unit["problems"]]
    failed = sum(unit["failed"] for unit in units)
    for name in units[0]["counts"]:
        seen = {json.dumps(unit["counts"].get(name)) for unit in units}
        if len(seen) > 1:
            problems.append(f"benchmark bug: {name} differs between units at seed {seed}: {sorted(seen)}")
            failed += 1

    def median(key: str, chosen: List[dict]) -> float:
        return statistics.median(unit[key] for unit in chosen)

    plain = [unit for unit in units if not unit["traced"]]
    if not trace:
        metrics = {
            "setup_s": median("setup_s", plain),
            "wall_ref_s": median("wall_ref_s", plain),
            "cpu_ref_s": median("cpu_ref_s", plain),
            "peak_rss_mb": median("peak_rss_mb", plain),
            "decision_speedup": median("quality", plain),
        }
    else:
        traced = [unit for unit in units if unit["traced"]]
        metrics = {
            name: statistics.median(unit["layer"][name] for unit in traced)
            for name in traced[0]["layer"]
        }
        windows = [ms for unit in traced for ms in unit["window_ms"]]
        cuts = statistics.quantiles(windows, n=100, method="inclusive") if windows else [0.0] * 99
        for q in (50, 95, 99):
            metrics[f"serving.window_p{q}_ms"] = cuts[q - 1]
        metrics["serving.requests_per_s"] = (
            median("attempted", traced) / median("wall_s", traced) if windows else 0.0
        )
        # Informational only: on a shared box two walls differ by more than
        # tracing costs, so the gate is the calibrated trace.overhead_share.
        metrics["trace.traced_over_untraced"] = (
            median("wall_s", traced) / median("wall_s", plain or traced)
        )
    return {
        "correct": not problems,
        "attempted": sum(unit["attempted"] for unit in units),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "unit_walls": [round(unit["wall_s"], 3) for unit in units],
    }


def main(argv=None) -> int:
    spec = manifest()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one unit each: exercises the harness, measures nothing")
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    size = "smoke" if args.smoke else "full"
    results: Dict[str, dict] = {}
    try:
        for workload in [args.workload] if args.workload else names:
            result = run_workload(workload, args.seed, args.seconds, size, bool(args.trace))
            for problem in result.pop("problems"):
                print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
            print(f"{workload}: unit walls {result.pop('unit_walls')} s, "
                  f"{result['failed']} of {result['attempted']} failed")
            measured = result["metrics"]
            result["metrics"] = {
                entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
                for entry in declared
            }
            for name, metric in result["metrics"].items():
                print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
            results[workload] = result
    finally:
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
