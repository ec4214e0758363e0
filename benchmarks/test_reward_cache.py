"""Reward-cache benchmark: warm lookups must crush cold compilation.

The paper's training loop is only tractable because rewards for already-seen
``(program, action)`` pairs are cached (§3.4).  This bench measures that
subsystem directly on the PolyBench suite: a cold pass evaluates the full
brute-force (VF, IF) grid through a fresh pipeline, then a warm pass replays
the identical requests against the populated :class:`RewardCache`.
"""

from __future__ import annotations

import time

from repro.cache import EvaluationBatcher, RewardCache, evaluate_requests
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.polybench import polybench_suite
from repro.evaluation.report import format_cache_stats_table
from repro.rl.spaces import DEFAULT_IF_VALUES, DEFAULT_VF_VALUES
from repro.tasks import get_task

#: The cold path must be at least this many times slower than warm lookups.
MIN_SPEEDUP = 5.0


def _grid_requests(kernels):
    pipeline = CompileAndMeasure()
    requests = []
    for kernel in kernels:
        try:
            loop_count = len(pipeline.lower_kernel(kernel).innermost_loops())
        except Exception:
            continue
        for loop_index in range(loop_count):
            for vf in DEFAULT_VF_VALUES:
                for interleave in DEFAULT_IF_VALUES:
                    requests.append((kernel, loop_index, (vf, interleave)))
    return requests


def _run_pass(pipeline, cache, requests):
    batcher = EvaluationBatcher(pipeline, cache)
    for kernel, loop_index, action in requests:
        batcher.add_action(kernel, loop_index, action)
    start = time.perf_counter()
    outcomes = batcher.flush()
    return time.perf_counter() - start, outcomes


def test_warm_cache_beats_cold_path_on_polybench():
    kernels = list(polybench_suite())
    requests = _grid_requests(kernels)
    assert len(requests) >= 100, "polybench grid should be a real workload"

    pipeline = CompileAndMeasure()
    cache = RewardCache()

    cold_seconds, cold_outcomes = _run_pass(pipeline, cache, requests)
    warm_seconds, warm_outcomes = _run_pass(pipeline, cache, requests)

    # The warm pass answers every request from the cache with identical
    # measurements, and the cold pass compiled each unique pair exactly once.
    assert all(outcome.was_cached for outcome in warm_outcomes)
    assert not any(outcome.was_cached for outcome in cold_outcomes)
    assert cache.stats.misses == len(requests)
    assert cache.stats.hits == len(requests)
    for cold, warm in zip(cold_outcomes, warm_outcomes):
        assert warm.measurement.cycles == cold.measurement.cycles

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    print()
    print(format_cache_stats_table(cache.stats, title="polybench grid sweep").render())
    print(
        f"cold: {cold_seconds * 1e3:.1f} ms, warm: {warm_seconds * 1e3:.1f} ms, "
        f"speedup: {speedup:.0f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm cache pass only {speedup:.1f}x faster than cold "
        f"({cold_seconds:.3f}s vs {warm_seconds:.3f}s)"
    )


def test_batcher_deduplicates_repeated_requests():
    kernels = list(polybench_suite())[:2]
    pipeline = CompileAndMeasure()
    cache = RewardCache()
    batcher = EvaluationBatcher(pipeline, cache)
    repeats = 10
    for _ in range(repeats):
        for kernel in kernels:
            batcher.add_action(kernel, 0, (8, 2))
    outcomes = batcher.flush()
    assert len(outcomes) == repeats * len(kernels)
    # One compile per unique (kernel, loop, VF, IF); the rest were folded.
    assert cache.stats.misses == len(kernels)
    assert cache.stats.batch_deduplicated == (repeats - 1) * len(kernels)
    assert len(cache) == len(kernels)


def test_identical_source_shares_cache_entries():
    kernels = list(polybench_suite())
    kernel = kernels[0]
    clone = kernel.with_source(kernel.source)
    clone.name = "clone_of_" + kernel.name
    pipeline = CompileAndMeasure()
    cache = RewardCache()
    task = get_task("vectorization")
    evaluate_requests(pipeline, cache, [(kernel, 0, (4, 2))], task=task)
    was_hit = evaluate_requests(pipeline, cache, [(clone, 0, (4, 2))], task=task)[0].was_cached
    # Content-keyed: a renamed kernel with byte-identical source hits.
    assert was_hit
