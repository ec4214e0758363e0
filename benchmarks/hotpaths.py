"""BENCH_hotpaths.json writer — the repo's hot-path perf trajectory.

Measures the three hot paths the batched-inference refactor targets and
appends one labelled entry to ``BENCH_hotpaths.json`` so every later PR can
show its speed delta against a recorded baseline instead of anecdotes:

* **training** — wall-clock of one fixed end-to-end ``NeuroVectorizer.train``
  run (embedding pretrain + PPO) over a seeded synthetic kernel set,
* **inference** — decision sites per second through the policy, serial
  (one ``act`` call per site) versus batched (one ``act_batch`` call over
  all pending sites); the batched column is ``null`` in entries written
  before ``act_batch`` existed,
* **frontend** — wall-clock of a full agent-comparison run with cold
  process state versus a repeat with *fresh* pipeline/reward caches, so any
  gap is exactly what the process-wide frontend memo saves,
* **update** (schema v2) — the PPO update phase profiled fused-kernel vs
  autodiff-graph with the gather/evaluate/backward/optimizer wall-clock
  split (delegated to :mod:`benchmarks.profile_update`); entries written
  by v1 code predate the section and simply lack the key.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/hotpaths.py --label my-change

``--tiny`` shrinks the workload for CI smoke runs, ``--check`` validates
the written file's schema and fails if batched inference ever regresses
below the serial path or a fused update entry diverged from the graph
path.  The workload of every entry is recorded inside the entry, so
entries of different sizes never get compared apples-to-oranges:
``--check`` and readers should compare entries with equal ``workload``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

SCHEMA = "bench-hotpaths/v2"

#: Older trajectory files this writer still reads (their entries are kept
#: verbatim; the file's schema tag is upgraded on the next append).
_COMPATIBLE_SCHEMAS = ("bench-hotpaths/v1", SCHEMA)

#: Fields every entry must carry (``--check`` enforces these).  ``update``
#: is intentionally absent: v1-era entries predate it.
_ENTRY_KEYS = ("label", "workload", "training", "inference", "frontend")


def _workload(tiny: bool) -> Dict[str, object]:
    if tiny:
        return {
            "tiny": True,
            "kernels": 4,
            "train_steps": 40,
            "batch_size": 20,
            "inference_sites": 128,
            "inference_repeats": 3,
            "seed": 0,
        }
    return {
        "tiny": False,
        "kernels": 24,
        "train_steps": 1200,
        "batch_size": 300,
        "inference_sites": 2048,
        "inference_repeats": 5,
        "seed": 0,
    }


def _make_kernels(workload: Dict[str, object]):
    from repro.datasets.synthetic import (
        SyntheticDatasetConfig,
        generate_synthetic_dataset,
    )

    config = SyntheticDatasetConfig(
        count=int(workload["kernels"]), seed=int(workload["seed"])
    )
    return list(generate_synthetic_dataset(config))


def bench_training(workload: Dict[str, object]) -> Dict[str, float]:
    """Wall-clock one fixed end-to-end training run."""
    from repro.core.framework import NeuroVectorizer, TrainingConfig

    kernels = _make_kernels(workload)
    config = TrainingConfig(
        rl_total_steps=int(workload["train_steps"]),
        rl_batch_size=int(workload["batch_size"]),
        pretrain_epochs=1,
        seed=int(workload["seed"]),
    )
    start = time.perf_counter()
    framework, _artifacts = NeuroVectorizer.train(kernels, config)
    seconds = time.perf_counter() - start
    framework.close()
    return {"wall_seconds": seconds}


def bench_inference(workload: Dict[str, object]) -> Dict[str, float]:
    """Sites/second through the policy: serial ``act`` vs ``act_batch``."""
    from repro.rl.policy import make_policy

    sites = int(workload["inference_sites"])
    repeats = int(workload["inference_repeats"])
    rng = np.random.default_rng(int(workload["seed"]))
    observation_dim = 128
    observations = rng.standard_normal((sites, observation_dim))

    def time_best(run) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best

    serial_policy = make_policy("discrete", observation_dim, seed=0)
    serial_seconds = time_best(
        lambda: [serial_policy.act(observation) for observation in observations]
    )
    serial_rate = sites / serial_seconds

    batched_policy = make_policy("discrete", observation_dim, seed=0)
    batched_rate = sites / time_best(lambda: batched_policy.act_batch(observations))
    return {
        "serial_sites_per_second": serial_rate,
        "batched_sites_per_second": batched_rate,
        "batched_over_serial": batched_rate / serial_rate,
    }


def bench_frontend(workload: Dict[str, object]) -> Dict[str, object]:
    """Comparison-run wall-clock, cold process vs warm process-wide memos.

    Both runs build *fresh* pipelines and reward caches; only state that
    outlives them (the process-wide frontend memo, once it exists) can make
    the second run faster.
    """
    from repro.cache.reward_cache import RewardCache
    from repro.core.framework import compare_agents
    from repro.core.pipeline import CompileAndMeasure

    frontend_stats = None
    try:
        from repro.frontend.cache import frontend_cache

        frontend_cache().clear()
    except ImportError:  # pre-refactor code: no process-wide memo
        pass

    kernels = _make_kernels(workload)

    def run_once() -> float:
        start = time.perf_counter()
        compare_agents(
            kernels,
            pipeline=CompileAndMeasure(),
            reward_cache=RewardCache(),
            seed=int(workload["seed"]),
        )
        return time.perf_counter() - start

    cold = run_once()
    warm = run_once()
    try:
        from repro.frontend.cache import frontend_cache

        frontend_stats = frontend_cache().stats.as_dict()
    except ImportError:
        pass
    return {
        "cold_comparison_seconds": cold,
        "warm_comparison_seconds": warm,
        "warm_speedup": cold / warm if warm > 0 else float("inf"),
        "frontend_cache": frontend_stats,
    }


def bench_update(workload: Dict[str, object]) -> Dict[str, object]:
    """PPO update phase: fused kernel vs autodiff graph, phase-split.

    Delegates to :func:`benchmarks.profile_update.profile_update` so the
    trajectory entry and the standalone profiler always measure the same
    committed workload.  Internal bookkeeping keys are stripped.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from profile_update import _workload as update_workload
        from profile_update import profile_update
    finally:
        sys.path.pop(0)

    result = profile_update(update_workload(bool(workload["tiny"])))
    return {
        "workload": result["workload"],
        "graph": result["graph"],
        "fused": result["fused"],
        "fused_speedup": result["fused_speedup"],
        "identical": result["identical"],
    }


def run_benchmark(label: str, tiny: bool = False) -> Dict[str, object]:
    """Run all four hot-path measurements and return one trajectory entry."""
    workload = _workload(tiny)
    entry: Dict[str, object] = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": workload,
    }
    entry["training"] = bench_training(workload)
    entry["inference"] = bench_inference(workload)
    entry["frontend"] = bench_frontend(workload)
    entry["update"] = bench_update(workload)
    return entry


# ---------------------------------------------------------------------------
# Trajectory file handling
# ---------------------------------------------------------------------------


def load_trajectory(path: Path) -> Dict[str, object]:
    if path.exists():
        payload = json.loads(path.read_text())
        if payload.get("schema") not in _COMPATIBLE_SCHEMAS:
            raise ValueError(
                f"{path} has schema {payload.get('schema')!r}, expected one "
                f"of {_COMPATIBLE_SCHEMAS!r}"
            )
        return payload
    return {"schema": SCHEMA, "entries": []}


def append_entry(path: Path, entry: Dict[str, object]) -> Dict[str, object]:
    payload = load_trajectory(path)
    payload["schema"] = SCHEMA  # v1 files upgrade in place; entries unchanged
    payload["entries"].append(entry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return payload


def validate(payload: Dict[str, object]) -> List[str]:
    """Schema/regression checks; returns a list of problems (empty = OK).

    v1-era entries (no ``update`` section) stay valid; entries that carry
    one must be byte-identical (``identical``) and report positive rates.
    """
    problems: List[str] = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}")
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        return problems + ["entries must be a non-empty list"]
    for index, entry in enumerate(entries):
        for key in _ENTRY_KEYS:
            if key not in entry:
                problems.append(f"entry {index} ({entry.get('label')}) lacks {key!r}")
        inference = entry.get("inference", {})
        serial = inference.get("serial_sites_per_second")
        if not isinstance(serial, (int, float)) or serial <= 0:
            problems.append(f"entry {index}: bad serial inference rate {serial!r}")
        batched = inference.get("batched_sites_per_second")
        if batched is not None and batched < serial:
            problems.append(
                f"entry {index} ({entry.get('label')}): batched inference "
                f"({batched:.0f}/s) regressed below serial ({serial:.0f}/s)"
            )
        frontend = entry.get("frontend", {})
        for key in ("cold_comparison_seconds", "warm_comparison_seconds"):
            value = frontend.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"entry {index}: bad frontend timing {key}={value!r}")
        update = entry.get("update")
        if update is not None:
            if update.get("identical") is not True:
                problems.append(
                    f"entry {index} ({entry.get('label')}): fused update "
                    "diverged from the autodiff graph"
                )
            for variant in ("graph", "fused"):
                rate = update.get(variant, {}).get("updates_per_second")
                if not isinstance(rate, (int, float)) or rate <= 0:
                    problems.append(
                        f"entry {index}: bad update rate {variant}={rate!r}"
                    )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json",
        help="trajectory file to append to (default: repo-root BENCH_hotpaths.json)",
    )
    parser.add_argument("--label", default="unlabelled", help="entry label")
    parser.add_argument(
        "--tiny", action="store_true", help="CI-sized workload (seconds, not minutes)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the file after writing; non-zero exit on problems",
    )
    args = parser.parse_args(argv)

    entry = run_benchmark(args.label, tiny=args.tiny)
    payload = append_entry(args.output, entry)
    inference = entry["inference"]
    frontend = entry["frontend"]
    print(f"wrote {args.output} ({len(payload['entries'])} entries)")
    print(f"  training: {entry['training']['wall_seconds']:.2f}s")
    serial = inference["serial_sites_per_second"]
    print(f"  inference serial: {serial:,.0f} sites/s")
    print(
        f"  inference batched: {inference['batched_sites_per_second']:,.0f} "
        f"sites/s ({inference['batched_over_serial']:.1f}x serial)"
    )
    print(
        f"  frontend: cold {frontend['cold_comparison_seconds']:.2f}s, "
        f"warm {frontend['warm_comparison_seconds']:.2f}s "
        f"({frontend['warm_speedup']:.2f}x)"
    )
    update = entry["update"]
    print(
        f"  update: graph {update['graph']['updates_per_second']:.1f}/s, "
        f"fused {update['fused']['updates_per_second']:.1f}/s "
        f"({update['fused_speedup']:.2f}x, identical={update['identical']})"
    )
    if args.check:
        problems = validate(payload)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
