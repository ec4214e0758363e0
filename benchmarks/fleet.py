"""BENCH_fleet.json writer — the fleet-evaluation perf trajectory.

Measures the multi-host evaluation fleet the way a training run sees it
and appends one labelled entry to ``BENCH_fleet.json``:

* **prefetch** — a small PPO run with two localhost
  :class:`~repro.fleet.FleetWorker` daemons and speculative prefetch
  covering the whole action menu.  The headline number is
  ``waits_converted``: the fraction of async reward waits the policy-driven
  prefetcher turned into store hits (or joins on already-speculated work)
  instead of dispatch-and-wait round trips.  Must stay ≥ 0.5.
* **fault tolerance** — the same sharded request grid evaluated twice:
  serially (ground truth) and on a two-worker fleet where one worker is
  armed to die mid-batch.  The orphaned work must re-shard onto the
  survivor and the results must stay byte-identical to serial.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/fleet.py --label my-change

``--tiny`` shrinks the workload for CI smoke runs; ``--check`` validates
the written file's schema and fails if waits-converted ever drops below
the floor or a faulted run stops matching serial.  Each entry records its
workload, so readers compare entries with equal ``workload`` only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA = "bench-fleet/v1"

#: Fields every entry must carry (``--check`` enforces these).
_ENTRY_KEYS = ("label", "workload", "prefetch", "fault_tolerance")

#: The acceptance floor: async waits the prefetcher must absorb.
MIN_WAITS_CONVERTED = 0.5


def _workload(tiny: bool) -> Dict[str, object]:
    if tiny:
        return {
            "tiny": True,
            "unique_kernels": 4,
            "train_steps": 160,
            "train_batch": 32,
            "prefetch_top_k": 35,
            "fleet_workers": 2,
            "seed": 0,
            "tasks": ["vectorization"],
        }
    return {
        "tiny": False,
        "unique_kernels": 4,
        "train_steps": 320,
        "train_batch": 32,
        "prefetch_top_k": 35,
        "fleet_workers": 2,
        "seed": 0,
        "tasks": ["vectorization"],
    }


def _kernels(workload: Dict[str, object]):
    from repro.datasets.synthetic import (
        SyntheticDatasetConfig,
        generate_synthetic_dataset,
    )

    return list(
        generate_synthetic_dataset(
            SyntheticDatasetConfig(
                count=int(workload["unique_kernels"]), seed=int(workload["seed"])
            )
        )
    )


def _start_fleet(count: int):
    from repro.fleet import FleetWorker

    workers = [FleetWorker().start() for _ in range(count)]
    addresses = ["%s:%d" % worker.address for worker in workers]
    return workers, addresses


def bench_prefetch(workload: Dict[str, object]) -> Dict[str, object]:
    """Train with a two-worker fleet and report the prefetch ledger.

    ``prefetch_top_k`` covers the whole vectorization menu (7 VFs x 5 IFs
    = 35 joint actions), so after the first batch every reward the policy
    asks for should already be speculated — the waits-converted rate is
    the fraction of demand lookups that found prefetched (or in-flight
    speculated) work instead of dispatching and waiting.
    """
    from repro.core.framework import NeuroVectorizer, TrainingConfig

    workers, addresses = _start_fleet(int(workload["fleet_workers"]))
    try:
        config = TrainingConfig(
            tasks=list(workload["tasks"]),
            rl_total_steps=int(workload["train_steps"]),
            rl_batch_size=int(workload["train_batch"]),
            pretrain_epochs=0,
            seed=int(workload["seed"]),
            fleet_workers=addresses,
            fleet_prefetch_top_k=int(workload["prefetch_top_k"]),
        )
        start = time.perf_counter()
        framework, _artifacts = NeuroVectorizer.train(
            _kernels(workload), config
        )
        seconds = time.perf_counter() - start
        stats = framework.evaluation_service.stats
        result = {
            "train_seconds": seconds,
            "fleet_workers": framework.evaluation_service.workers,
            "dispatched": stats.dispatched,
            "completed": stats.completed,
            "demand_dispatched": stats.demand_dispatched,
            "prefetch_issued": stats.prefetch_issued,
            "prefetch_hits": stats.prefetch_hits,
            "prefetch_joined": stats.prefetch_joined,
            "prefetch_wasted": stats.prefetch_wasted,
            "waits_converted": stats.waits_converted,
            "workers_lost": stats.workers_lost,
            "errors": stats.errors,
        }
        framework.close()
        return result
    finally:
        for worker in workers:
            worker.stop()


def bench_fault_tolerance(workload: Dict[str, object]) -> Dict[str, object]:
    """Kill one of two workers mid-batch; results must still match serial."""
    from repro.cache.reward_cache import RewardCache
    from repro.core.pipeline import CompileAndMeasure
    from repro.distributed import EvaluationService
    from repro.fleet import FleetEvaluationService, FleetWorker, WorkerFaults

    kernels = _kernels(workload)
    requests = [
        (kernel, 0, (vf, interleave))
        for kernel in kernels
        for vf in (1, 2, 4, 8)
        for interleave in (1, 2)
    ]

    def tuples(outcomes):
        return [
            (o.measurement.cycles, o.measurement.compile_seconds) for o in outcomes
        ]

    serial = tuples(
        EvaluationService(CompileAndMeasure(), workers=0).evaluate(requests)
    )

    workers = [
        FleetWorker(faults=WorkerFaults(die_after=2)).start(),
        FleetWorker().start(),
    ]
    try:
        service = FleetEvaluationService(
            CompileAndMeasure(),
            RewardCache(),
            addresses=["%s:%d" % worker.address for worker in workers],
            heartbeat_interval=0.1,
            heartbeat_timeout=3.0,
        )
        try:
            start = time.perf_counter()
            fleet = tuples(service.evaluate(requests))
            seconds = time.perf_counter() - start
            stats = service.stats
            return {
                "requests": len(requests),
                "seconds": seconds,
                "matches_serial": fleet == serial,
                "workers_lost": stats.workers_lost,
                "retries": stats.retries,
                "reshards": stats.reshards,
                "inline_evaluations": stats.inline_evaluations,
                "completed": stats.completed,
                "survivors": service.workers,
            }
        finally:
            service.close()
    finally:
        for worker in workers:
            worker.stop()


def run_benchmark(label: str, tiny: bool) -> Dict[str, object]:
    """Run both fleet measurements and return one trajectory entry."""
    workload = _workload(tiny)
    return {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": workload,
        "prefetch": bench_prefetch(workload),
        "fault_tolerance": bench_fault_tolerance(workload),
    }


# ---------------------------------------------------------------------------
# Trajectory file handling
# ---------------------------------------------------------------------------


def load_trajectory(path: Path) -> Dict[str, object]:
    if path.exists():
        payload = json.loads(path.read_text())
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"{path} has schema {payload.get('schema')!r}, expected {SCHEMA!r}"
            )
        return payload
    return {"schema": SCHEMA, "entries": []}


def append_entry(path: Path, entry: Dict[str, object]) -> Dict[str, object]:
    payload = load_trajectory(path)
    payload["entries"].append(entry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return payload


def validate(payload: Dict[str, object]) -> List[str]:
    """Schema/regression checks; returns a list of problems (empty = OK)."""
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
        prefetch = entry.get("prefetch", {})
        converted = prefetch.get("waits_converted")
        if not isinstance(converted, (int, float)) or converted < MIN_WAITS_CONVERTED:
            problems.append(
                f"entry {index} ({entry.get('label')}): prefetch converted "
                f"{converted!r} of async waits, below the "
                f"{MIN_WAITS_CONVERTED} floor"
            )
        if prefetch.get("errors") != 0:
            problems.append(
                f"entry {index} ({entry.get('label')}): training run saw "
                f"{prefetch.get('errors')!r} worker errors, expected 0"
            )
        fault = entry.get("fault_tolerance", {})
        if fault.get("matches_serial") is not True:
            problems.append(
                f"entry {index} ({entry.get('label')}): faulted fleet run did "
                "not match the serial ground truth"
            )
        if fault.get("workers_lost") != 1:
            problems.append(
                f"entry {index} ({entry.get('label')}): expected exactly one "
                f"lost worker, saw {fault.get('workers_lost')!r}"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_fleet.json",
        help="trajectory file to append to (default: repo-root BENCH_fleet.json)",
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
    prefetch = entry["prefetch"]
    fault = entry["fault_tolerance"]
    print(f"wrote {args.output} ({len(payload['entries'])} entries)")
    print(
        f"  prefetch: {prefetch['waits_converted']:.2f} of async waits converted "
        f"({prefetch['prefetch_hits']} hits + {prefetch['prefetch_joined']} joins "
        f"vs {prefetch['demand_dispatched']} demand dispatches)"
    )
    print(
        f"  fault tolerance: matches_serial={fault['matches_serial']} "
        f"(lost {fault['workers_lost']}, re-sharded {fault['reshards']}, "
        f"{fault['requests']} requests in {fault['seconds']:.2f}s)"
    )
    if args.check:
        problems = validate(payload)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
