"""One contract, three backends: the evaluation service vs the plain batcher.

:class:`repro.distributed.EvaluationService` is written once over a
transport backend — none (in-process), a 2-process pool, a 2-worker
localhost fleet.  Every case here runs on all three and is checked against
the plain :class:`EvaluationBatcher`: identical ``(cycles,
compile_seconds)`` per slot and identical ``CacheStats`` accounting.
Backend-specific behaviour (worker death/mute/tear, heartbeats, the store)
stays in ``test_distributed.py`` / ``test_fleet.py``.
"""

from __future__ import annotations

import pytest

from fleet_utils import (
    add_kernel,
    fleet_service,
    grid_requests,
    outcome_tuples,
    scale_kernel,
    start_workers,
)
from repro.cache.reward_cache import EvaluationBatcher, RewardCache
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService
from repro.fleet import FleetEvaluationService
from repro.tasks import get_task


@pytest.fixture(params=["none", "pool", "fleet"])
def service(request):
    if request.param == "none":
        yield EvaluationService(CompileAndMeasure(), workers=0)
    elif request.param == "pool":
        with EvaluationService(CompileAndMeasure(), workers=2) as pool:
            yield pool
    else:
        with start_workers(2) as workers, fleet_service(workers) as fleet:
            yield fleet


def batcher_reference(*batches):
    """Outcome tuples and cache stats of flushing each batch in turn
    through one plain batcher."""
    cache = RewardCache()
    batcher = EvaluationBatcher(CompileAndMeasure(), cache)
    outcomes = []
    for batch in batches:
        for kernel, site_index, action in batch:
            batcher.add_action(kernel, site_index, action)
        outcomes.extend(outcome_tuples(batcher.flush()))
    return outcomes, cache.stats


def accounting(stats):
    return (stats.hits, stats.misses, stats.batch_deduplicated)


def broken_kernel() -> LoopKernel:
    return LoopKernel(
        name="broken", source="int f() { return 0; }", function_name="missing"
    )


def test_duplicates_inside_one_batch(service):
    requests = grid_requests(add_kernel()) + grid_requests(scale_kernel())
    requests += requests[:3]
    expected, expected_stats = batcher_reference(requests)

    outcomes = service.evaluate(requests)

    assert outcome_tuples(outcomes) == expected
    assert accounting(service.cache.stats) == accounting(expected_stats)
    assert [outcome.was_cached for outcome in outcomes[-3:]] == [True] * 3
    unique = len(requests) - 3
    if service.workers == 0:
        assert service.stats.serial_batches == 1
        assert service.stats.dispatched == 0
    else:
        assert service.stats.serial_batches == 0
        assert service.stats.dispatched == service.stats.completed == unique


def test_in_flight_dedup_across_two_unresolved_futures(service):
    requests = grid_requests(add_kernel())
    first = service.submit(requests)
    eager = first.done()  # no workers: evaluated inside submit()
    second = service.submit(requests)  # identical; in flight unless eager
    # Two unresolved futures dedup like one doubled batch; an eager service
    # is two flushes, the second answered from the cache.
    expected, expected_stats = (
        batcher_reference(requests, requests)
        if eager
        else batcher_reference(requests + requests)
    )

    assert outcome_tuples(first.result()) + outcome_tuples(second.result()) == expected
    assert all(outcome.was_cached for outcome in second.result())
    assert accounting(service.cache.stats) == accounting(expected_stats)
    assert eager == (service.workers == 0)
    if not eager:
        assert expected_stats.batch_deduplicated == len(requests)
        assert service.stats.dispatched == len(requests)


def test_measure_applications_flags_and_lifetime_dedup(service):
    task = get_task("vectorization")
    jobs = [(add_kernel(), {0: (4, 2)}), (scale_kernel(), {0: (4, 2)})]
    serial_cache = RewardCache()
    expected = [
        task.apply(
            CompileAndMeasure(), kernel, plan, reward_cache=serial_cache
        ).result.cycles
        for kernel, plan in jobs
    ]
    fanned = service.workers > 0

    assert service.measure_applications(task, jobs, detail=True) == [fanned] * 2
    # Per-lifetime dedup: a second call dispatches nothing.
    dispatched = service.stats.dispatched
    assert service.measure_applications(task, jobs, detail=True) == [False] * 2
    assert service.measure_applications(task, jobs) == 0
    assert service.stats.dispatched == dispatched == (2 if fanned else 0)

    misses = service.cache.stats.misses
    applied = [
        task.apply(
            service.pipeline, kernel, plan, reward_cache=service.cache
        ).result.cycles
        for kernel, plan in jobs
    ]
    assert applied == expected
    if fanned:  # the serial pass after a fan-out is pure lookups
        assert service.cache.stats.misses == misses


def test_failing_site_job_surfaces_as_error(service):
    if service.workers == 0:
        with pytest.raises(ValueError, match="no function 'missing'"):
            service.submit([(broken_kernel(), 0, (4, 1))])
        return
    future = service.submit([(broken_kernel(), 0, (4, 1))])
    with pytest.raises(RuntimeError, match="failed in workers"):
        future.result()
    assert service.stats.errors == 1
    # The failure poisons nothing: the same service still answers.
    requests = grid_requests(add_kernel(), vfs=(1, 2))
    assert outcome_tuples(service.evaluate(requests)) == batcher_reference(requests)[0]


def test_failing_application_stays_retryable(service):
    task = get_task("vectorization")
    jobs = [(broken_kernel(), {0: (4, 1)})]
    if service.workers == 0:
        assert service.measure_applications(task, jobs, detail=True) == [False]
        return
    for attempt in (1, 2):
        # Not remembered as applied: the retry is dispatched (and fails) again.
        with pytest.raises(RuntimeError, match="application job"):
            service.measure_applications(task, jobs)
        assert service.stats.errors == attempt
        assert service.stats.dispatched == attempt
    good = [(add_kernel(), {0: (4, 2)})]
    assert service.measure_applications(task, good, detail=True) == [True]


def test_prefetch_needs_workers_and_never_skews_demand_stats(service):
    requests = grid_requests(add_kernel())
    issued = service.prefetch(requests)
    assert issued == (len(requests) if service.workers else 0)
    assert accounting(service.cache.stats) == (0, 0, 0)  # peek(), not get()
    service.settle()

    outcomes = service.evaluate(requests)

    assert outcome_tuples(outcomes) == batcher_reference(requests)[0]
    assert service.stats.prefetch_issued == service.stats.prefetch_hits == issued
    if issued:
        assert all(outcome.was_cached for outcome in outcomes)
        assert service.stats.demand_dispatched == 0


def test_per_worker_maps_are_name_keyed_and_reported(service):
    requests = grid_requests(add_kernel()) + grid_requests(scale_kernel())
    service.evaluate(requests)
    stats = service.stats
    report = stats.as_dict()

    assert report["per_worker_dispatched"] == stats.per_worker_dispatched
    assert report["per_worker_completed"] == stats.per_worker_completed
    assert all(isinstance(name, str) for name in stats.per_worker_completed)
    assert sum(stats.per_worker_dispatched.values()) == stats.dispatched
    assert sum(stats.per_worker_completed.values()) == stats.completed
    assert stats.completed == (len(requests) if service.workers else 0)
    assert report["remote"] == isinstance(service, FleetEvaluationService)
