"""Distributed-evaluation benchmark: persistent warm start + sharded identity.

Two acceptance properties of the evaluation service, measured on PolyBench:

(a) a second run against a populated on-disk reward store performs **zero**
    simulator invocations for repeated kernels — the cross-run analogue of
    the in-memory warm/cold split in ``test_reward_cache.py``;
(b) sharding evaluation across worker processes produces results
    byte-identical to the serial ``workers=0`` path.
"""

from __future__ import annotations

from repro.cache import RewardCache
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.polybench import polybench_suite
from repro.distributed import EvaluationService, PersistentRewardStore
from repro.rl.spaces import DEFAULT_IF_VALUES, DEFAULT_VF_VALUES
from repro.simulator.engine import Simulator


def _grid_requests(kernels):
    """The full brute-force (kernel, loop, VF, IF) sweep for the suite."""
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


def _outcome_bytes(outcomes) -> bytes:
    """A byte-exact encoding of the measurements (floats via repr)."""
    return "\n".join(
        f"{outcome.measurement.cycles!r} {outcome.measurement.compile_seconds!r}"
        for outcome in outcomes
    ).encode("utf-8")


def test_populated_store_eliminates_simulation_on_second_run(tmp_path, monkeypatch):
    kernels = list(polybench_suite())
    requests = _grid_requests(kernels)
    assert len(requests) >= 100, "polybench grid should be a real workload"

    # Run 1: cold, populating the on-disk store.
    cold_cache = RewardCache(PersistentRewardStore(str(tmp_path)))
    cold_service = EvaluationService(CompileAndMeasure(), cold_cache, workers=0)
    cold_outcomes = cold_service.evaluate(requests)
    cold_cache.close()
    unique_misses = sum(1 for outcome in cold_outcomes if not outcome.was_cached)
    assert cold_cache.store.stats.appended == unique_misses > 0

    # Run 2: a brand-new pipeline and cache in a "new process" — every
    # measurement must come from disk, with the simulator never invoked.
    calls = {"count": 0}
    original = Simulator.simulate

    def counting(self, *args, **kwargs):
        calls["count"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "simulate", counting)
    warm_cache = RewardCache(PersistentRewardStore(str(tmp_path)))
    warm_service = EvaluationService(CompileAndMeasure(), warm_cache, workers=0)
    warm_outcomes = warm_service.evaluate(requests)
    warm_cache.close()

    assert calls["count"] == 0, "warm run must not touch the simulator"
    assert all(outcome.was_cached for outcome in warm_outcomes)
    assert warm_cache.preloaded == unique_misses
    assert _outcome_bytes(warm_outcomes) == _outcome_bytes(cold_outcomes)


def test_sharded_workers_byte_identical_to_serial(tmp_path):
    kernels = list(polybench_suite())
    requests = _grid_requests(kernels)

    serial_service = EvaluationService(CompileAndMeasure(), workers=0)
    serial_outcomes = serial_service.evaluate(requests)

    with EvaluationService(CompileAndMeasure(), workers=2) as sharded_service:
        sharded_outcomes = sharded_service.evaluate(requests)
        # Every unique miss went to a worker (none evaluated in-process) and
        # kernel-hash sharding kept each kernel on exactly one worker.
        assert sharded_service.stats.serial_batches == 0
        assert sharded_service.stats.completed == sharded_service.stats.dispatched
        assert sum(sharded_service.stats.per_worker_completed.values()) == (
            sharded_service.stats.completed
        )

    assert _outcome_bytes(sharded_outcomes) == _outcome_bytes(serial_outcomes)
