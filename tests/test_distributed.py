"""Tests for the distributed evaluation subsystem (repro.distributed)."""

from __future__ import annotations

import json
import os

import pytest

from repro.cache.reward_cache import (
    WHOLE_FUNCTION_BASELINE,
    WHOLE_FUNCTION_TASK,
    CachedMeasurement,
    EvaluationBatcher,
    RewardCache,
    RewardKey,
    evaluate_requests,
)
from repro.core.framework import NeuroVectorizer, build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.datasets.motivating import dot_product_kernel
from repro.distributed import EvaluationService, PersistentRewardStore
from repro.distributed.async_api import AsyncEvaluator
from repro.distributed.store import SCHEMA_NAME
from repro.evaluation.report import Table
from repro.simulator.engine import Simulator
from repro.tasks import get_task


ADD_SOURCE = """
int a[256], b[256];
int add_arrays() {
    int s = 0;
    for (int i = 0; i < 256; i++) {
        s += a[i] + b[i];
    }
    return s;
}
"""

SCALE_SOURCE = """
float x[512], y[512];
void scale(float alpha) {
    for (int i = 0; i < 512; i++) {
        y[i] = alpha * x[i];
    }
}
"""


def add_kernel() -> LoopKernel:
    return LoopKernel(name="add", source=ADD_SOURCE, function_name="add_arrays")


def scale_kernel() -> LoopKernel:
    return LoopKernel(name="scale", source=SCALE_SOURCE, function_name="scale")


def measure(cache, pipeline, task, kernel, site_index, action):
    """One cached site measurement as ``(measurement, was_cached)``."""
    (outcome,) = evaluate_requests(pipeline, cache, [(kernel, site_index, action)], task=task)
    return outcome.measurement, outcome.was_cached


def sample_key(index: int = 0) -> RewardKey:
    return RewardKey(
        kernel_hash=f"kernel{index:02d}" + "0" * 32,
        machine_hash="machine" + "0" * 33,
        loop_index=0,
        action=(4, 2),
        task="vectorization",
        default_symbol_value=256,
    )


def grid_requests(kernel, vfs=(1, 2, 4, 8), ifs=(1, 2)):
    return [(kernel, 0, (vf, interleave)) for vf in vfs for interleave in ifs]


def outcome_tuples(outcomes):
    return [(o.measurement.cycles, o.measurement.compile_seconds) for o in outcomes]


# ---------------------------------------------------------------------------
# PersistentRewardStore
# ---------------------------------------------------------------------------


class TestPersistentRewardStore:
    def test_round_trip(self, tmp_path):
        store = PersistentRewardStore(str(tmp_path))
        entries = {
            sample_key(i): CachedMeasurement(cycles=100.0 + i, compile_seconds=0.5 * i)
            for i in range(5)
        }
        for key, measurement in entries.items():
            store.append(key, measurement)
        store.close()

        reloaded = PersistentRewardStore(str(tmp_path)).load()
        assert reloaded == entries

    def test_segment_has_schema_header(self, tmp_path):
        store = PersistentRewardStore(str(tmp_path))
        store.append(sample_key(), CachedMeasurement(1.0, 0.1))
        store.close()
        with open(store.segment_path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["schema"] == SCHEMA_NAME
        assert isinstance(header["version"], int)

    def test_truncated_tail_is_tolerated(self, tmp_path):
        store = PersistentRewardStore(str(tmp_path))
        good = {sample_key(i): CachedMeasurement(float(i), 0.0) for i in range(3)}
        for key, measurement in good.items():
            store.append(key, measurement)
        store.close()
        # Simulate a crash mid-append: a torn, incomplete final record.
        with open(store.segment_path, "a", encoding="utf-8") as handle:
            handle.write('{"key": ["deadbeef", "mach')

        fresh = PersistentRewardStore(str(tmp_path))
        assert fresh.load() == good
        assert fresh.stats.corrupt_records == 1
        assert fresh.stats.records_loaded == 3

    def test_corrupt_middle_record_skipped(self, tmp_path):
        store = PersistentRewardStore(str(tmp_path))
        store.append(sample_key(0), CachedMeasurement(1.0, 0.0))
        store.close()
        with open(store.segment_path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"key": [1, 2], "cycles": 3}\n')
        second = PersistentRewardStore(str(tmp_path))
        second.append(sample_key(1), CachedMeasurement(2.0, 0.0))
        second.close()

        fresh = PersistentRewardStore(str(tmp_path))
        loaded = fresh.load()
        assert len(loaded) == 2
        assert fresh.stats.corrupt_records == 2

    def test_incompatible_version_segment_skipped(self, tmp_path):
        path = os.path.join(str(tmp_path), "segment-future.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": SCHEMA_NAME, "version": 999}) + "\n")
            handle.write('{"key": ["a","b",0,1,1,256], "cycles": 1.0, "compile_seconds": 0}\n')
        store = PersistentRewardStore(str(tmp_path))
        assert store.load() == {}
        assert store.stats.segments_skipped == 1

    def test_headerless_segment_skipped(self, tmp_path):
        path = os.path.join(str(tmp_path), "segment-junk.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage\n")
        store = PersistentRewardStore(str(tmp_path))
        assert store.load() == {}
        assert store.stats.segments_skipped == 1

    def test_concurrent_writers_merge_instead_of_clobbering(self, tmp_path):
        first = PersistentRewardStore(str(tmp_path))
        second = PersistentRewardStore(str(tmp_path))
        assert first.segment_path != second.segment_path
        first.append(sample_key(0), CachedMeasurement(1.0, 0.0))
        second.append(sample_key(1), CachedMeasurement(2.0, 0.0))
        first.close()
        second.close()

        merged = PersistentRewardStore(str(tmp_path)).load()
        assert set(merged) == {sample_key(0), sample_key(1)}

    def test_later_record_wins_within_one_segment(self, tmp_path):
        store = PersistentRewardStore(str(tmp_path))
        store.append(sample_key(), CachedMeasurement(1.0, 0.0))
        store.append(sample_key(), CachedMeasurement(2.0, 0.0))
        store.close()
        merged = PersistentRewardStore(str(tmp_path)).load()
        assert merged[sample_key()].cycles == 2.0

    def test_compact_merges_segments_without_touching_stats(self, tmp_path):
        for index in range(3):
            store = PersistentRewardStore(str(tmp_path))
            store.append(sample_key(index), CachedMeasurement(float(index), 0.0))
            store.close()
        compactor = PersistentRewardStore(str(tmp_path))
        stats_before = compactor.stats.as_dict()
        count = compactor.compact()
        assert count == 3
        assert len(compactor.segment_paths()) == 1
        assert len(PersistentRewardStore(str(tmp_path)).load()) == 3
        # compact() reuses load() internally but must not inflate the
        # warm-start bookkeeping.
        assert compactor.stats.as_dict() == stats_before


# ---------------------------------------------------------------------------
# RewardCache over a PersistentRewardStore
# ---------------------------------------------------------------------------


class TestStoreBackedRewardCache:
    def test_put_persists_and_second_cache_preloads(self, tmp_path):
        cache = RewardCache(PersistentRewardStore(str(tmp_path)))
        cache.put(sample_key(), CachedMeasurement(42.0, 0.25))
        cache.close()

        warm = RewardCache(PersistentRewardStore(str(tmp_path)))
        assert warm.preloaded == 1
        assert warm.peek(sample_key()) == CachedMeasurement(42.0, 0.25)

    def test_unchanged_put_is_not_reappended(self, tmp_path):
        cache = RewardCache(PersistentRewardStore(str(tmp_path)))
        measurement = CachedMeasurement(42.0, 0.25)
        cache.put(sample_key(), measurement)
        cache.put(sample_key(), measurement)
        assert cache.store.stats.appended == 1
        cache.put(sample_key(), CachedMeasurement(43.0, 0.25))
        assert cache.store.stats.appended == 2
        cache.close()

    def test_measure_through_cache_persists(self, tmp_path):
        pipeline = CompileAndMeasure()
        cache = RewardCache(PersistentRewardStore(str(tmp_path)))
        measurement, was_hit = measure(
            cache, pipeline, get_task("vectorization"), add_kernel(), 0, (4, 2)
        )
        assert not was_hit
        cache.close()

        warm = RewardCache(PersistentRewardStore(str(tmp_path)))
        cached, was_hit = measure(
            warm, CompileAndMeasure(), get_task("vectorization"), add_kernel(), 0, (4, 2)
        )
        assert was_hit
        assert cached == measurement

    def test_segment_written_before_the_key_redesign_is_served(self, tmp_path):
        # A literal v2 segment captured from a store written at the commit
        # before RewardKey lost its (vf, interleave) constructor: one site
        # action and one whole-function baseline of the dot-product kernel.
        (tmp_path / "segment-5817-cb8a5e8d.jsonl").write_text(
            '{"schema": "repro-reward-store", "version": 2}\n'
            '{"key":["b1d0eee2cf245908aebb36ea6924d17052801b12",'
            '"3c9c90dd8b4b949b49537a950e2e5bfe9371446c",0,"vectorization",'
            '[8,2],256],"cycles":131.62,"compile_seconds":0.05808}\n'
            '{"key":["b1d0eee2cf245908aebb36ea6924d17052801b12",'
            '"3c9c90dd8b4b949b49537a950e2e5bfe9371446c",-1,"function",'
            '[0,0],256],"cycles":247.74,"compile_seconds":0.05808}\n'
        )
        pipeline = CompileAndMeasure()
        kernel = dot_product_kernel()
        cache = RewardCache()
        site_key = cache.site_key(
            pipeline, get_task("vectorization"), kernel, 0, (8, 2)
        )
        baseline_key = cache.key_for(
            kernel,
            pipeline.machine,
            WHOLE_FUNCTION_BASELINE,
            (0, 0),
            WHOLE_FUNCTION_TASK,
            default_symbol_value=pipeline.default_symbol_value,
        )
        assert PersistentRewardStore(str(tmp_path)).load() == {
            site_key: CachedMeasurement(131.62, 0.05808),
            baseline_key: CachedMeasurement(247.74, 0.05808),
        }
        with RewardCache(PersistentRewardStore(str(tmp_path))) as warm:
            assert warm.preloaded == 2
            assert measure(
                warm, pipeline, get_task("vectorization"), kernel, 0, (8, 2)
            ) == (CachedMeasurement(131.62, 0.05808), True)
            assert warm.measure_baseline(pipeline, kernel) == (
                CachedMeasurement(247.74, 0.05808),
                True,
            )


# ---------------------------------------------------------------------------
# EvaluationService
# ---------------------------------------------------------------------------


class TestEvaluationService:
    def test_serial_matches_plain_batcher(self):
        requests = grid_requests(add_kernel())
        batcher_cache = RewardCache()
        batcher = EvaluationBatcher(CompileAndMeasure(), batcher_cache)
        for kernel, site_index, action in requests:
            batcher.add_action(kernel, site_index, action)
        expected = outcome_tuples(batcher.flush())

        service = EvaluationService(CompileAndMeasure(), workers=0)
        assert outcome_tuples(service.evaluate(requests)) == expected
        assert service.stats.serial_batches == 1
        assert service.stats.dispatched == 0

    def test_sharded_workers_match_serial(self):
        requests = grid_requests(add_kernel()) + grid_requests(scale_kernel())
        serial = outcome_tuples(EvaluationService(CompileAndMeasure(), workers=0).evaluate(requests))
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            parallel = outcome_tuples(service.evaluate(requests))
            assert parallel == serial
            assert service.stats.completed == len(requests)
            assert sum(service.stats.per_worker_completed.values()) == len(requests)

    def test_unrolling_payloads_shard_identically_to_serial(self):
        # One-dimensional task actions travel the same WorkRequest payload
        # path as (VF, IF) pairs: workers resolve "unrolling" from the
        # registry and must answer byte-identically to the serial batcher.
        from repro.tasks import get_task

        task = get_task("unrolling")
        requests = [
            (kernel, site, (unroll,))
            for kernel in (add_kernel(), scale_kernel())
            for site in (0,)
            for unroll in task.menus[0]
        ]
        serial = outcome_tuples(
            EvaluationService(CompileAndMeasure(), workers=0).evaluate(
                requests, task=task
            )
        )
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            parallel = outcome_tuples(service.evaluate(requests, task=task))
        assert parallel == serial

    def test_second_evaluation_is_all_cache_hits(self):
        requests = grid_requests(add_kernel())
        with EvaluationService(CompileAndMeasure(), workers=1) as service:
            service.evaluate(requests)
            dispatched = service.stats.dispatched
            outcomes = service.evaluate(requests)
            assert all(outcome.was_cached for outcome in outcomes)
            assert service.stats.dispatched == dispatched

    def test_service_only_agent_without_pipeline_works(self):
        # Regression: a best-of-N random-search agent wired only to a
        # service (no in-process pipeline) must evaluate via the service,
        # not crash on the consistency check.
        from repro.agents.random_search import RandomSearchAgent
        import numpy as np

        with EvaluationService(CompileAndMeasure(), workers=0) as service:
            agent = RandomSearchAgent(seed=2, candidates=3, evaluation_service=service)
            decision = agent.select_factors(np.zeros(2), kernel=add_kernel(), loop_index=0)
            assert service.stats.serial_requests == 3
            assert decision.action[0] >= 1

    @pytest.mark.parametrize("workers", [0, 1])
    def test_submit_after_close_raises_clearly(self, workers):
        service = EvaluationService(CompileAndMeasure(), workers=workers)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(grid_requests(add_kernel()))

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            EvaluationService(CompileAndMeasure(), workers=-1)


# ---------------------------------------------------------------------------
# AsyncEvaluator overlap
# ---------------------------------------------------------------------------


class TestAsyncEvaluator:
    @staticmethod
    def _env(service=None):
        from repro.rl.env import MultiTaskEnv, build_samples

        kernels = [add_kernel(), scale_kernel()]
        embedding = build_embedding_model(kernels)
        samples = build_samples(kernels, embedding, CompileAndMeasure())
        return MultiTaskEnv(
            ["vectorization"],
            {"vectorization": samples},
            seed=0,
            shuffle=False,
            evaluation_service=service,
        )

    def test_overlapped_submission_matches_synchronous_path(self):
        sync_env = self._env()
        pairs = [(sample, (2, 1)) for sample in sync_env.samples]
        expected = [step.reward for step in sync_env.evaluate_batch(pairs)]

        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            async_env = self._env(service=service)
            evaluator = AsyncEvaluator(async_env)
            assert evaluator.overlapping
            futures = [
                evaluator.submit([(sample, (2, 1))]) for sample in async_env.samples
            ]
            rewards = [step.reward for future in futures for step in future.result()]
        assert rewards == expected
        assert async_env.total_steps == len(pairs)

    def test_serial_submission_is_answered_at_once_and_equivalent(self):
        env = self._env()
        evaluator = AsyncEvaluator(env)
        assert not evaluator.overlapping
        future = evaluator.submit([(env.samples[0], (2, 1))])
        assert future.done()
        (step,) = future.result()
        reference_env = self._env()
        (reference,) = reference_env.evaluate_batch([(reference_env.samples[0], (2, 1))])
        assert step.reward == reference.reward


# ---------------------------------------------------------------------------
# Framework integration: warm start + stats guards
# ---------------------------------------------------------------------------


class TestFrameworkWarmStart:
    def test_second_run_performs_zero_simulator_invocations(self, tmp_path, monkeypatch):
        from repro.agents.brute_force import BruteForceAgent

        kernels = [add_kernel(), scale_kernel()]
        embedding = build_embedding_model(kernels)

        def run(count_calls: bool):
            cache = RewardCache(PersistentRewardStore(str(tmp_path)))
            service = EvaluationService(CompileAndMeasure(), cache)
            agent = BruteForceAgent(evaluation_service=service)
            framework = NeuroVectorizer(embedding, agent, evaluation_service=service)
            calls = {"n": 0}
            if count_calls:
                original = Simulator.simulate

                def counting(self, *args, **kwargs):
                    calls["n"] += 1
                    return original(self, *args, **kwargs)

                monkeypatch.setattr(Simulator, "simulate", counting)
            results = framework.optimize_suite(kernels)
            framework.close()
            if count_calls:
                monkeypatch.undo()
            return results, calls["n"]

        cold_results, _ = run(count_calls=False)
        warm_results, simulator_calls = run(count_calls=True)

        assert simulator_calls == 0
        assert [r.cycles for r in warm_results] == [r.cycles for r in cold_results]
        assert [r.baseline_cycles for r in warm_results] == [
            r.baseline_cycles for r in cold_results
        ]
        assert [r.decisions for r in warm_results] == [
            r.decisions for r in cold_results
        ]


class TestFrameworkStatsReports:
    @staticmethod
    def _framework(**kwargs) -> NeuroVectorizer:
        kernels = [add_kernel()]
        embedding = build_embedding_model(kernels)
        from repro.agents.baseline import BaselineAgent

        return NeuroVectorizer(embedding, BaselineAgent(), **kwargs)

    def test_cache_stats_report_before_any_evaluation(self):
        framework = self._framework()
        report = framework.cache_stats_report()
        assert isinstance(report, Table)
        rendered = report.render()
        assert "no evaluations" in rendered

    def test_cache_stats_report_after_evaluation(self):
        framework = self._framework()
        framework.optimize_kernel(add_kernel())
        rendered = framework.cache_stats_report().render()
        assert "no evaluations" not in rendered
        assert "hit rate" in rendered

    def test_default_framework_reports_its_serial_requests(self):
        framework = self._framework()
        requests = grid_requests(add_kernel())
        framework.evaluation_service.evaluate(requests)
        rows = framework.service_stats_report().rows
        assert ["serial batches", "1"] in rows
        assert ["serial requests", str(len(requests))] in rows

    def test_service_stats_report_with_store(self, tmp_path):
        pipeline = CompileAndMeasure()
        cache = RewardCache(PersistentRewardStore(str(tmp_path)))
        service = EvaluationService(pipeline, cache, workers=0)
        framework = self._framework(evaluation_service=service)
        service.evaluate(grid_requests(add_kernel()))
        rendered = framework.service_stats_report().render()
        assert "serial batches" in rendered
        assert "store: records appended" in rendered
        framework.close()
