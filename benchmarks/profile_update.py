"""PPO update profiler: fused kernel vs autodiff graph, phase by phase.

Runs the same seeded synthetic PPO workload through the trainer twice —
once as it trains (the fused kernel) and once with the trainer's updater
instance bound to ``graph_update_minibatch`` from the tests' autodiff
oracle (``tests/oracle``), the per-minibatch graph the kernel is checked
against — with a
:class:`repro.profiling.PhaseTimer` attached, so every entry splits the
update wall-clock into its gather / evaluate / backward / optimizer
phases.  The two variants must finish with **byte-identical weights and
metrics**: the fused kernel is a pure re-expression of the graph, so any
drift is a bug, and ``--check`` fails on it.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/profile_update.py --tiny --check

``--tiny`` shrinks the workload to CI size (well under a second);
``--check`` additionally enforces the identity gate and that the fused
path has not catastrophically regressed against the graph path
(``--min-speedup``, default 0.8 to stay robust to CI timer noise — the
real measurement lives in BENCH_hotpaths.json entries on the full
workload).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Holds the ``oracle`` package, the autodiff graph of the PPO step.
TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"


def _workload(tiny: bool) -> Dict[str, object]:
    if tiny:
        return {
            "tiny": True,
            "batch": 96,
            "updates": 3,
            "observation_dim": 16,
            "hidden": [32, 16],
            "minibatch": 16,
            "epochs": 4,
            "tasks": 2,
            "repeats": 2,
            "seed": 0,
        }
    # Mirrors the framework's real training shape (hidden (64, 64),
    # batches of a few hundred sites, minibatch 128): graph overhead, not
    # matmul width, is the update path's actual bottleneck at this scale.
    return {
        "tiny": False,
        "batch": 384,
        "updates": 12,
        "observation_dim": 128,
        "hidden": [64, 64],
        "minibatch": 128,
        "epochs": 8,
        "tasks": 3,
        "repeats": 3,
        "seed": 0,
    }


class _NullEnv:
    """The trainer only touches the env during collection, which this
    harness skips by feeding pre-generated batches straight to update()."""

    def set_action_spaces(self, spaces) -> None:  # pragma: no cover - trivial
        pass


def _spaces(task_count: int):
    from repro.rl.spaces import DiscreteFactorSpace

    arities = [(7, 5), (4, 3, 2), (5, 2)]
    spaces = {}
    for index in range(task_count):
        menus = tuple(
            tuple(range(1, size + 1)) for size in arities[index % len(arities)]
        )
        spaces[f"task{index}"] = DiscreteFactorSpace(menus=menus)
    return spaces


def _make_batches(spaces, workload: Dict[str, object]) -> List[Tuple]:
    rng = np.random.default_rng(int(workload["seed"]) + 77)
    names = list(spaces)
    n = int(workload["batch"])
    observation_dim = int(workload["observation_dim"])
    max_dims = max(len(space.sizes) for space in spaces.values())
    batches = []
    for _ in range(int(workload["updates"])):
        observations = rng.standard_normal((n, observation_dim))
        tasks = [names[i % len(names)] for i in range(n)]
        actions = np.zeros((n, max_dims), dtype=np.float64)
        for i, task in enumerate(tasks):
            for j, size in enumerate(spaces[task].sizes):
                actions[i, j] = rng.integers(0, size)
        old_log_probs = rng.standard_normal(n) * 0.3 - 1.0
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n) * 0.5
        batches.append((observations, actions, old_log_probs, rewards, values, tasks))
    return batches


def _run_variant(graph: bool, workload: Dict[str, object]) -> Dict[str, object]:
    """One full multi-update run; returns timings plus identity evidence.

    The wall-clock is best-of-``repeats`` (each repeat rebuilds policy and
    trainer from the same seed, so every repeat does identical work); the
    phase split and the final weights come from the last repeat.
    """
    from repro.profiling import PhaseTimer
    from repro.rl.policy import make_policy
    from repro.rl.ppo import PPOConfig, PPOTrainer

    sys.path.insert(0, str(TESTS_DIR))
    try:
        from oracle import graph_update_minibatch
    finally:
        sys.path.pop(0)

    spaces = _spaces(int(workload["tasks"]))
    batches = _make_batches(spaces, workload)
    best = float("inf")
    timer = policy = metrics = None
    for _ in range(int(workload["repeats"])):
        policy = make_policy(
            "discrete",
            int(workload["observation_dim"]),
            hidden_sizes=tuple(workload["hidden"]),
            seed=int(workload["seed"]) + 3,
            spaces=spaces,
            conditioning="banks",
        )
        timer = PhaseTimer()
        config = PPOConfig(
            minibatch_size=int(workload["minibatch"]),
            epochs_per_batch=int(workload["epochs"]),
        )
        trainer = PPOTrainer(_NullEnv(), policy, config, profiler=timer)
        if graph:
            trainer._updater.update_minibatch = functools.partial(
                graph_update_minibatch, policy, trainer.optimizer, config
            )
        metrics = []
        start = time.perf_counter()
        for batch in batches:
            with timer.scope("update"):
                metrics.append(trainer.update(*batch[:5], task_names=batch[5]))
        best = min(best, time.perf_counter() - start)
    phases = {
        name: seconds
        for name, seconds in timer.as_dict().items()
        if name.startswith("update")
    }
    updates = int(workload["updates"])
    return {
        "wall_seconds": best,
        "updates_per_second": updates / best if best > 0 else float("inf"),
        "phases": phases,
        "_weights": [parameter.data.tobytes() for parameter in policy.parameters()],
        "_metrics": metrics,
    }


def profile_update(workload: Dict[str, object]) -> Dict[str, object]:
    """Profile both variants and fold in the identity verdict."""
    graph = _run_variant(True, workload)
    fused = _run_variant(False, workload)
    identical = (
        graph.pop("_weights") == fused.pop("_weights")
        and graph.pop("_metrics") == fused.pop("_metrics")
    )
    graph.pop("_metrics", None)
    fused.pop("_metrics", None)
    return {
        "workload": workload,
        "graph": graph,
        "fused": fused,
        "fused_speedup": (
            graph["wall_seconds"] / fused["wall_seconds"]
            if fused["wall_seconds"] > 0
            else float("inf")
        ),
        "identical": identical,
    }


def _print_report(result: Dict[str, object]) -> None:
    for variant in ("graph", "fused"):
        data = result[variant]
        print(
            f"{variant:>6}: {data['wall_seconds']:.3f}s "
            f"({data['updates_per_second']:.1f} updates/s)"
        )
        total = sum(
            seconds for name, seconds in data["phases"].items() if "/" in name
        )
        for name in sorted(data["phases"]):
            if "/" not in name:
                continue
            seconds = data["phases"][name]
            share = seconds / total if total else 0.0
            print(f"        {name:<20} {seconds:.4f}s ({share:5.1%})")
    print(f"fused speedup: {result['fused_speedup']:.2f}x")
    print(f"byte-identical: {result['identical']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI-sized workload")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the variants are byte-identical and the fused "
        "path clears --min-speedup",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.8,
        help="lowest acceptable fused/graph wall-clock ratio under --check",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the result as JSON instead"
    )
    args = parser.parse_args(argv)

    result = profile_update(_workload(args.tiny))
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        _print_report(result)
    if args.check:
        problems = []
        if not result["identical"]:
            problems.append("fused update diverged from the autodiff graph")
        if result["fused_speedup"] < args.min_speedup:
            problems.append(
                f"fused speedup {result['fused_speedup']:.2f}x below the "
                f"{args.min_speedup:.2f}x floor"
            )
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
