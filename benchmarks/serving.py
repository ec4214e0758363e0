"""BENCH_serving.json writer — the compile-service perf trajectory.

Measures the serving front door the way a deployment would see it and
appends one labelled entry to ``BENCH_serving.json``:

* **throughput** — requests/second for the same warm request stream served
  two ways: *single* (``max_batch_size=1``, one request in flight at a
  time — the pre-serving, call-the-framework-per-request shape) versus
  *coalesced* (the admission queue batches the whole stream, duplicate
  in-flight kernels share one computation, every tick runs one shared-trunk
  ``act_batch`` forward).  The ratio is the headline number: coalesced
  serving must stay ≥3x single-request throughput.  The two arms are timed
  alternately :data:`THROUGHPUT_REPEATS` times and the gate reads the
  median ratio, so one scheduler hiccup in one arm does not decide it; the
  command line pins BLAS to one thread (``workload.blas_threads``), as
  ``benchmarks/e2e`` does.
* **tcp** (schema v2) — the same store-warm service behind
  :class:`~repro.serving.CompileServer` on loopback, one
  :class:`~repro.serving.TCPClient` in a closed loop of windows of
  :data:`TCP_WINDOW`: window p50, and *transport overhead* — a window's
  round trip minus the slowest ``latency_ms`` the service reports inside
  it, i.e. what the wire adds.  A Nagle/delayed-ACK stall shows here as
  ~40 ms; ``--check`` fails above :data:`MAX_TCP_OVERHEAD_MS`.  Entries
  written by v1 code predate the section and simply lack the key.
* **warm store** — a brand-new service on a cache over the reopened
  :class:`~repro.distributed.store.PersistentRewardStore` answers the whole
  unique-kernel set with **zero** ``Simulator.simulate`` calls (the
  ``store`` tier end to end).

Run it from the repo root::

    PYTHONPATH=src python benchmarks/serving.py --label my-change

``--tiny`` shrinks the workload for CI smoke runs; ``--check`` validates
the written file's schema and fails if coalesced throughput ever drops
below 3x single, the wire adds more than 10 ms to a window, or the warm
store simulates anything.  Each entry records its workload, so readers
compare entries with equal ``workload`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA = "bench-serving/v2"

#: Schemas :func:`load_trajectory` accepts; v1 files upgrade on append.
_COMPATIBLE_SCHEMAS = ("bench-serving/v1", SCHEMA)

#: Fields every entry must carry (``--check`` enforces these).  ``tcp``
#: is intentionally absent: v1-era entries predate it.
_ENTRY_KEYS = ("label", "workload", "throughput", "warm_store")

#: The acceptance floor: coalesced serving versus one-at-a-time serving.
MIN_COALESCED_OVER_SINGLE = 3.0

#: How many times the single/coalesced pair is timed; the gate reads the
#: median ratio.
THROUGHPUT_REPEATS = 5

#: Requests per ``optimize_many`` round trip in the ``tcp`` section.
TCP_WINDOW = 8

#: The most the wire may add to a window's p50 (a Nagle stall is ~40 ms,
#: a healthy loopback round trip well under 2 ms).
MAX_TCP_OVERHEAD_MS = 10.0


def _workload(tiny: bool) -> Dict[str, object]:
    if tiny:
        return {
            "tiny": True,
            "unique_kernels": 4,
            "repeats_per_kernel": 24,
            "tcp_windows": 40,
            "blas_threads": 1,
            "train_steps": 40,
            "train_batch": 20,
            "max_batch_size": 96,
            "max_wait_us": 2000,
            "seed": 0,
            "tasks": ["vectorization", "unrolling"],
        }
    return {
        "tiny": False,
        "unique_kernels": 8,
        "repeats_per_kernel": 32,
        "tcp_windows": 200,
        "blas_threads": 1,
        "train_steps": 120,
        "train_batch": 40,
        "max_batch_size": 128,
        "max_wait_us": 2000,
        "seed": 0,
        "tasks": ["vectorization", "unrolling"],
    }


def _train_framework(workload: Dict[str, object]):
    """A tiny trained framework whose policy the services serve."""
    from repro.core.framework import NeuroVectorizer, TrainingConfig
    from repro.datasets.synthetic import (
        SyntheticDatasetConfig,
        generate_synthetic_dataset,
    )

    kernels = list(
        generate_synthetic_dataset(
            SyntheticDatasetConfig(
                count=int(workload["unique_kernels"]), seed=int(workload["seed"])
            )
        )
    )
    config = TrainingConfig(
        tasks=list(workload["tasks"]),
        rl_total_steps=int(workload["train_steps"]),
        rl_batch_size=int(workload["train_batch"]),
        pretrain_epochs=0,
        seed=int(workload["seed"]),
    )
    framework, _artifacts = NeuroVectorizer.train(kernels, config)
    return framework, kernels


def _request_stream(workload: Dict[str, object], kernels) -> list:
    """The benchmark traffic: every kernel repeated, tasks round-robin."""
    from repro.serving import CompileRequest

    tasks = list(workload["tasks"])
    stream = []
    for repeat in range(int(workload["repeats_per_kernel"])):
        for index, kernel in enumerate(kernels):
            stream.append(
                CompileRequest(
                    source=kernel.source,
                    function_name=kernel.function_name,
                    task=tasks[index % len(tasks)],
                    name=kernel.name,
                    bindings=dict(kernel.bindings),
                    request_id=f"r{repeat}-{index}",
                )
            )
    return stream


def _fresh_service(framework, workload: Dict[str, object], reward_cache,
                   max_batch_size: int, max_wait_us: int):
    """A service with its own observation memo on a shared reward cache."""
    from repro.core.pipeline import CompileAndMeasure
    from repro.distributed import EvaluationService
    from repro.serving import CompileService

    return CompileService(
        framework.agent.policy,
        framework.embedding_model,
        tasks=list(workload["tasks"]),
        evaluation_service=EvaluationService(CompileAndMeasure(), reward_cache),
        max_batch_size=max_batch_size,
        max_wait_us=max_wait_us,
    )


def _count_simulations(body):
    from repro.simulator.engine import Simulator

    calls = {"n": 0}
    original = Simulator.simulate

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    Simulator.simulate = counting
    try:
        result = body()
    finally:
        Simulator.simulate = original
    return result, calls["n"]


def _time_single(framework, workload, reward_cache, stream) -> float:
    """One request in flight at a time, no coalescing window."""
    single = _fresh_service(framework, workload, reward_cache,
                            max_batch_size=1, max_wait_us=0)
    with single:
        start = time.perf_counter()
        for request in stream:
            response = single.optimize(request)
            if not response.ok:
                raise RuntimeError(f"single-request serving failed: {response.error}")
        return time.perf_counter() - start


def _time_coalesced(framework, workload, reward_cache, stream):
    """The whole stream admitted up front; the tick worker batches it and
    duplicates share leaders.  Returns ``(seconds, report)``."""
    coalesced = _fresh_service(
        framework, workload, reward_cache,
        max_batch_size=int(workload["max_batch_size"]),
        max_wait_us=int(workload["max_wait_us"]),
    )
    futures = [coalesced.submit(request) for request in stream]
    start = time.perf_counter()
    coalesced.start()
    responses = [future.result(timeout=120) for future in futures]
    seconds = time.perf_counter() - start
    coalesced.stop()
    for response in responses:
        if not response.ok:
            raise RuntimeError(f"coalesced serving failed: {response.error}")
    return seconds, coalesced.report()


def bench_throughput(framework, kernels, workload: Dict[str, object],
                     reward_cache) -> Dict[str, object]:
    """Requests/second: one-at-a-time versus coalesced, same warm stream.

    Every timing uses a fresh service (empty observation memo) on the shared
    pre-warmed reward cache, so the gap is pure serving machinery: admission
    batching, in-flight dedup and the single-forward tick.  The arms
    alternate so a slow stretch of the host lands on both.
    """
    stream = _request_stream(workload, kernels)
    single_seconds, coalesced_seconds = [], []
    for _ in range(THROUGHPUT_REPEATS):
        single_seconds.append(_time_single(framework, workload, reward_cache, stream))
        seconds, report = _time_coalesced(framework, workload, reward_cache, stream)
        coalesced_seconds.append(seconds)

    requests = len(stream)
    single_median = statistics.median(single_seconds)
    coalesced_median = statistics.median(coalesced_seconds)
    return {
        "requests": requests,
        "single_seconds": single_median,
        "single_requests_per_second": requests / single_median,
        "coalesced_seconds": coalesced_median,
        "coalesced_requests_per_second": requests / coalesced_median,
        # The median of the per-pair ratios, not the ratio of the medians:
        # a pair shares its stretch of host time, two medians need not.
        "coalesced_over_single": statistics.median(
            single / coalesced
            for single, coalesced in zip(single_seconds, coalesced_seconds)
        ),
        "single_seconds_runs": single_seconds,
        "coalesced_seconds_runs": coalesced_seconds,
        "coalesced_report": report.as_dict(),
    }


def bench_tcp(framework, kernels, workload: Dict[str, object],
              reward_cache) -> Dict[str, object]:
    """Closed-loop windows over loopback against a store-warm service.

    One client sends a window with ``optimize_many`` and waits for all of
    it before sending the next.  Everything is answered from the store
    tier, so a window costs about a tick; what the round trip takes beyond
    the slowest ``latency_ms`` inside it is the wire's.
    """
    import numpy as np

    from repro.serving import CompileServer, TCPClient

    stream = _request_stream(workload, kernels)
    windows = [
        stream[start:start + TCP_WINDOW]
        for start in range(0, len(stream) - TCP_WINDOW + 1, TCP_WINDOW)
    ]
    service = _fresh_service(
        framework, workload, reward_cache,
        max_batch_size=int(workload["max_batch_size"]),
        max_wait_us=int(workload["max_wait_us"]),
    )
    window_ms, overhead_ms = [], []
    with CompileServer(service) as server:
        with TCPClient.connect(server.address) as client:
            # Every kernel once through the measured service itself, so its
            # observation memo is as warm as the shared reward cache.
            client.optimize_many(stream[:len(kernels)])
            for index in range(int(workload["tcp_windows"])):
                window = windows[index % len(windows)]
                start = time.perf_counter()
                responses = client.optimize_many(window)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                for response in responses:
                    if not response.ok or response.tier != "store":
                        raise RuntimeError(
                            f"tcp serving left the store tier: {response.tier} "
                            f"{response.error}"
                        )
                window_ms.append(elapsed_ms)
                overhead_ms.append(
                    elapsed_ms - max(response.latency_ms for response in responses)
                )
    service.stop()
    window_p50, window_p95 = np.percentile(window_ms, (50.0, 95.0))
    return {
        "windows": len(window_ms),
        "window_size": TCP_WINDOW,
        "window_p50_ms": float(window_p50),
        "window_p95_ms": float(window_p95),
        "transport_overhead_p50_ms": statistics.median(overhead_ms),
    }


def bench_warm_store(framework, kernels, workload: Dict[str, object],
                     store_dir: Path) -> Dict[str, object]:
    """Fully warm persistent store: zero simulator calls for the whole set."""
    from repro.cache import RewardCache
    from repro.distributed import PersistentRewardStore

    stream = _request_stream(workload, kernels)
    unique = {request.fingerprint(): request for request in stream}

    cold_cache = RewardCache(PersistentRewardStore(str(store_dir)))
    with _fresh_service(framework, workload, cold_cache,
                        max_batch_size=int(workload["max_batch_size"]),
                        max_wait_us=0) as service:
        for request in unique.values():
            response = service.optimize(request)
            if not response.ok:
                raise RuntimeError(f"store warm-up failed: {response.error}")
    cold_cache.close()

    warm_cache = RewardCache(PersistentRewardStore(str(store_dir)))
    warm_service = _fresh_service(framework, workload, warm_cache,
                                  max_batch_size=int(workload["max_batch_size"]),
                                  max_wait_us=0)

    def serve_all():
        with warm_service:
            return [
                warm_service.optimize(request) for request in unique.values()
            ]

    responses, simulations = _count_simulations(serve_all)
    report = warm_service.report()
    preloaded = warm_cache.preloaded
    warm_cache.close()
    tiers = {response.tier for response in responses}
    return {
        "requests": len(responses),
        "preloaded_measurements": preloaded,
        "simulations": simulations,
        "tiers": sorted(tiers),
        "store_rate": report.tier_rate("store"),
    }


def run_benchmark(label: str, tiny: bool, store_dir: Path) -> Dict[str, object]:
    """Run the three serving measurements and return one trajectory entry."""
    from repro.cache.reward_cache import RewardCache

    workload = _workload(tiny)
    entry: Dict[str, object] = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": workload,
    }
    framework, kernels = _train_framework(workload)
    try:
        # Pre-warm one shared cache so both throughput arms serve the same
        # (store-tier) work and the ratio isolates the serving machinery.
        warmup = RewardCache()
        warm_service = _fresh_service(framework, workload, warmup,
                                      max_batch_size=64, max_wait_us=0)
        with warm_service:
            for request in _request_stream(workload, kernels):
                warm_service.optimize(request)
        entry["throughput"] = bench_throughput(framework, kernels, workload, warmup)
        entry["tcp"] = bench_tcp(framework, kernels, workload, warmup)
        entry["warm_store"] = bench_warm_store(framework, kernels, workload,
                                               store_dir)
    finally:
        framework.close()
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

    v1-era entries (no ``tcp`` section) stay valid; entries that carry one
    must keep the wire's share of a window under the stall gate.
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
        throughput = entry.get("throughput", {})
        for key in ("single_requests_per_second", "coalesced_requests_per_second"):
            value = throughput.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"entry {index}: bad throughput {key}={value!r}")
        ratio = throughput.get("coalesced_over_single")
        if not isinstance(ratio, (int, float)) or ratio < MIN_COALESCED_OVER_SINGLE:
            problems.append(
                f"entry {index} ({entry.get('label')}): coalesced serving is "
                f"{ratio!r}x single-request throughput, below the "
                f"{MIN_COALESCED_OVER_SINGLE}x floor"
            )
        if "tcp" in entry:
            overhead = entry["tcp"].get("transport_overhead_p50_ms")
            if not isinstance(overhead, (int, float)) or overhead > MAX_TCP_OVERHEAD_MS:
                problems.append(
                    f"entry {index} ({entry.get('label')}): the wire adds "
                    f"{overhead!r} ms to a window of {TCP_WINDOW}, above the "
                    f"{MAX_TCP_OVERHEAD_MS} ms stall gate"
                )
        warm_store = entry.get("warm_store", {})
        simulations = warm_store.get("simulations")
        if simulations != 0:
            problems.append(
                f"entry {index} ({entry.get('label')}): warm store ran "
                f"{simulations!r} simulations, expected 0"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serving.json",
        help="trajectory file to append to (default: repo-root BENCH_serving.json)",
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

    # One BLAS thread, as benchmarks/e2e pins it (numpy is not imported yet).
    # On a 2-vCPU host threaded OpenBLAS can spend a process's first seconds
    # at ~5 ms per small matmul; the coalesced arm's whole cost is one tick
    # of embeds, so that mode alone takes the ratio from ~7x to ~1.5x.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"

    with tempfile.TemporaryDirectory(prefix="bench-serving-store-") as store_dir:
        entry = run_benchmark(args.label, tiny=args.tiny,
                              store_dir=Path(store_dir) / "store")
    payload = append_entry(args.output, entry)
    throughput = entry["throughput"]
    tcp = entry["tcp"]
    warm_store = entry["warm_store"]
    print(f"wrote {args.output} ({len(payload['entries'])} entries)")
    print(
        f"  single: {throughput['single_requests_per_second']:,.0f} req/s "
        f"({throughput['requests']} requests in {throughput['single_seconds']:.2f}s)"
    )
    print(
        f"  coalesced: {throughput['coalesced_requests_per_second']:,.0f} req/s "
        f"({throughput['coalesced_over_single']:.1f}x single, median of "
        f"{THROUGHPUT_REPEATS} alternating pairs)"
    )
    print(
        f"  tcp: window of {tcp['window_size']} p50 {tcp['window_p50_ms']:.2f} ms, "
        f"transport overhead p50 {tcp['transport_overhead_p50_ms']:.2f} ms "
        f"({tcp['windows']} windows)"
    )
    print(
        f"  warm store: {warm_store['requests']} requests, "
        f"{warm_store['simulations']} simulations, tiers {warm_store['tiers']}"
    )
    if args.check:
        problems = validate(payload)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
