"""Unit tests for the shared reward cache and evaluation batcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import (
    CachedMeasurement,
    EvaluationBatcher,
    RewardCache,
    evaluate_requests,
    kernel_fingerprint,
    machine_fingerprint,
    normalize_requests,
)
from repro.core.framework import NeuroVectorizer, TrainingConfig, build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.datasets.motivating import dot_product_kernel
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.distributed import EvaluationService
from repro.evaluation.report import format_cache_stats_table
from repro.machine.description import MachineDescription
from repro.rl.env import COMPILE_TIME_PENALTY, MultiTaskEnv, build_samples
from repro.tasks import get_task

VECTORIZATION = get_task("vectorization")

SAXPY = LoopKernel(
    name="saxpy",
    source=(
        "float x[2048], y[2048];\n"
        "void saxpy(float alpha) { for (int i = 0; i < 2048; i++)"
        " y[i] = alpha * x[i] + y[i]; }"
    ),
    function_name="saxpy",
)


def measure(cache, pipeline, task, kernel, site_index, action):
    """One cached site measurement as ``(measurement, was_cached)``."""
    (outcome,) = evaluate_requests(pipeline, cache, [(kernel, site_index, action)], task=task)
    return outcome.measurement, outcome.was_cached


class TestFingerprints:
    def test_kernel_fingerprint_tracks_content_not_name(self):
        clone = SAXPY.with_source(SAXPY.source)
        clone.name = "renamed"
        assert kernel_fingerprint(clone) == kernel_fingerprint(SAXPY)

    def test_kernel_fingerprint_changes_with_source(self):
        edited = SAXPY.with_source(SAXPY.source.replace("2048", "1024"))
        assert kernel_fingerprint(edited) != kernel_fingerprint(SAXPY)

    def test_kernel_fingerprint_changes_with_bindings(self):
        bound = SAXPY.with_source(SAXPY.source)
        bound.bindings = {"n": 64}
        assert kernel_fingerprint(bound) != kernel_fingerprint(SAXPY)

    def test_machine_fingerprint_tracks_cost_knobs(self):
        assert machine_fingerprint(MachineDescription()) == machine_fingerprint(
            MachineDescription()
        )
        wider = MachineDescription(vector_bits=512)
        assert machine_fingerprint(wider) != machine_fingerprint(MachineDescription())


class TestRewardCache:
    def test_measure_records_hit_and_miss(self, pipeline):
        cache = RewardCache()
        first, was_hit_first = measure(cache, pipeline, VECTORIZATION, SAXPY, 0, (8, 2))
        second, was_hit_second = measure(cache, pipeline, VECTORIZATION, SAXPY, 0, (8, 2))
        assert not was_hit_first and was_hit_second
        assert second.cycles == first.cycles
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_different_actions_are_distinct_entries(self, pipeline):
        cache = RewardCache()
        measure(cache, pipeline, VECTORIZATION, SAXPY, 0, (1, 1))
        _, was_hit = measure(cache, pipeline, VECTORIZATION, SAXPY, 0, (8, 2))
        assert not was_hit
        assert len(cache) == 2

    def test_machine_changes_miss(self):
        cache = RewardCache()
        avx2 = CompileAndMeasure(machine=MachineDescription())
        avx512 = CompileAndMeasure(machine=MachineDescription(vector_bits=512))
        measure(cache, avx2, VECTORIZATION, SAXPY, 0, (8, 2))
        _, was_hit = measure(cache, avx512, VECTORIZATION, SAXPY, 0, (8, 2))
        assert not was_hit

    def test_default_symbol_value_is_part_of_the_key(self):
        # The simulator pads unbound symbolic bounds with this value, so two
        # pipelines configured differently must not share measurements.
        symbolic = LoopKernel(
            name="symbolic",
            source=(
                "void f(float *a, int n) { for (int i = 0; i < n; i++)"
                " a[i] = a[i] * 2.0f; }"
            ),
            function_name="f",
        )
        cache = RewardCache()
        small = CompileAndMeasure(default_symbol_value=16)
        large = CompileAndMeasure(default_symbol_value=4096)
        first, _ = measure(cache, small, VECTORIZATION, symbolic, 0, (4, 2))
        second, was_hit = measure(cache, large, VECTORIZATION, symbolic, 0, (4, 2))
        assert not was_hit
        assert second.cycles != first.cycles

    def test_discarded_kernels_never_alias_fingerprints(self):
        # id() of a freed kernel is recycled immediately by CPython; the memo
        # must pin objects / identity-check so a new kernel at the same
        # address cannot inherit the old kernel's hash.
        cache = RewardCache()
        machine = MachineDescription()
        keys = set()
        for n in (128, 256, 512, 1024, 2048):
            kernel = SAXPY.with_source(SAXPY.source.replace("2048", str(n)))
            keys.add(cache.key_for(kernel, machine, 0, (4, 2), "vectorization").kernel_hash)
            del kernel
        assert len(keys) == 5

    def test_source_reassignment_rehashes(self):
        cache = RewardCache()
        machine = MachineDescription()
        kernel = SAXPY.with_source(SAXPY.source)
        before = cache.key_for(kernel, machine, 0, (4, 2), "vectorization").kernel_hash
        kernel.source = kernel.source.replace("2048", "64")
        after = cache.key_for(kernel, machine, 0, (4, 2), "vectorization").kernel_hash
        assert before != after

    def test_in_place_bindings_edit_remeasures(self, pipeline):
        # The memo must recheck every field the fingerprint hashes, not
        # just the source: a stale hit here served the old extent's cycles.
        kernel = generate_synthetic_dataset(SyntheticDatasetConfig(count=1, seed=0))[0]
        cache = RewardCache()
        measure(cache, pipeline, VECTORIZATION, kernel, 0, (4, 2))
        kernel.bindings["n"] = 4096
        edited, was_hit = measure(cache, pipeline, VECTORIZATION, kernel, 0, (4, 2))
        fresh, _ = measure(RewardCache(), pipeline, VECTORIZATION, kernel, 0, (4, 2))
        assert not was_hit
        assert edited == fresh

    def test_function_name_reassignment_rehashes(self):
        cache = RewardCache()
        machine = MachineDescription()
        kernel = SAXPY.with_source(SAXPY.source)
        before = cache.key_for(kernel, machine, 0, (4, 2), "vectorization").kernel_hash
        kernel.function_name = "other"
        after = cache.key_for(kernel, machine, 0, (4, 2), "vectorization").kernel_hash
        assert before != after

    def test_clear_empties_entries(self, pipeline):
        cache = RewardCache()
        measure(cache, pipeline, VECTORIZATION, SAXPY, 0, (8, 2))
        cache.clear()
        assert len(cache) == 0


class TestEvaluationBatcher:
    def test_flush_preserves_request_order(self, pipeline):
        cache = RewardCache()
        batcher = EvaluationBatcher(pipeline, cache)
        grid = [(1, 1), (4, 2), (8, 4)]
        tickets = [batcher.add_action(SAXPY, 0, (vf, il)) for vf, il in grid]
        outcomes = batcher.flush()
        assert tickets == [0, 1, 2]
        direct = [
            pipeline.measure_with_factors(SAXPY, {0: factors}).cycles
            for factors in grid
        ]
        assert [o.measurement.cycles for o in outcomes] == direct

    def test_duplicates_cost_one_evaluation(self, pipeline):
        cache = RewardCache()
        batcher = EvaluationBatcher(pipeline, cache)
        for _ in range(5):
            batcher.add_action(SAXPY, 0, (8, 2))
        outcomes = batcher.flush()
        assert cache.stats.misses == 1
        assert cache.stats.batch_deduplicated == 4
        assert not outcomes[0].was_cached
        assert all(o.was_cached for o in outcomes[1:])

    def test_flush_drains_pending(self, pipeline):
        batcher = EvaluationBatcher(pipeline, RewardCache())
        batcher.add_action(SAXPY, 0, (2, 1))
        batcher.flush()
        assert len(batcher) == 0
        assert batcher.flush() == []


class TestRequestShape:
    def test_well_formed_triple_is_normalized(self):
        assert normalize_requests([(SAXPY, 0, [8, 2])]) == [(SAXPY, 0, (8, 2))]

    @pytest.mark.parametrize(
        "malformed",
        [
            (SAXPY, 0, 8, 2),  # the retired (kernel, loop, vf, interleave) form
            (SAXPY, 0),
            (SAXPY, 0, 8),  # scalar action
            (SAXPY, 0, ("wide", 2)),
            SAXPY,
        ],
    )
    def test_malformed_request_is_one_typed_error(self, malformed):
        with pytest.raises(ValueError, match=r"\(kernel, site_index, action\) triple"):
            normalize_requests([(SAXPY, 0, (8, 2)), malformed])

    def test_wrong_dimension_action_never_becomes_a_key(self, pipeline):
        # Every keyed entry point canonicalizes through task.cache_key, so a
        # (VF, IF) pair cannot be filed under the one-dimensional task.
        unrolling = get_task("unrolling")
        cache = RewardCache()
        with pytest.raises(ValueError, match="unrolling"):
            measure(cache, pipeline, unrolling, SAXPY, 0, (4, 2))
        with pytest.raises(ValueError, match="unrolling"):
            EvaluationBatcher(pipeline, cache, task=unrolling).add_action(
                SAXPY, 0, (4, 2)
            )
        with pytest.raises(ValueError, match="unrolling"):
            evaluate_requests(pipeline, cache, [(SAXPY, 0, (4, 2))], task=unrolling)
        assert len(cache) == 0
        with pytest.raises(TypeError):
            cache.key_for(SAXPY, pipeline.machine, 0, (4, 2))  # no default task


class TestEnvBatchEvaluation:
    @pytest.fixture(scope="class")
    def env(self):
        kernels = [dot_product_kernel(), SAXPY]
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        samples = build_samples(kernels, embedding, pipeline)
        return MultiTaskEnv(
            ["vectorization"], {"vectorization": samples}, shuffle=False, seed=0
        )

    def test_evaluate_batch_matches_step(self, env):
        sample = env.samples[0]
        direct_reward, _ = env.evaluate_action(sample, (8, 2))
        action = env.action_spaces["vectorization"].encode((8, 2))
        results = env.evaluate_batch([(sample, action)] * 3)
        assert [r.reward for r in results] == [direct_reward] * 3
        assert all(r.info["cached"] == 1.0 for r in results)

    def test_evaluate_batch_counts_steps(self, env):
        before = env.total_steps
        sample = env.samples[0]
        action = env.action_spaces["vectorization"].encode((4, 1))
        env.evaluate_batch([(sample, action)] * 4)
        assert env.total_steps == before + 4

    def test_factors_batch_mixes_samples(self, env):
        requests = [(sample, (2, 2)) for sample in env.samples]
        results = env.evaluate_actions_batch(requests)
        assert len(results) == len(env.samples)
        for (sample, action), (reward, info) in zip(requests, results):
            assert info["vf"] == float(action[0])
            expected, _ = env.evaluate_action(sample, action)
            assert reward == expected

    def test_shared_cache_across_envs(self):
        kernels = [dot_product_kernel()]
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        samples = build_samples(kernels, embedding, pipeline)
        shared = EvaluationService(pipeline)
        lenient = MultiTaskEnv(
            ["vectorization"], {"vectorization": samples},
            evaluation_service=shared, shuffle=False,
        )
        strict = MultiTaskEnv(
            ["vectorization"], {"vectorization": samples},
            evaluation_service=shared,
            shuffle=False,
            compile_time_limit=0.0001,
        )
        lenient.evaluate_action(samples[0], (64, 16))
        reward, info = strict.evaluate_action(samples[0], (64, 16))
        # The measurement is shared, but each env derives its own reward.
        assert info.get("cached") == 1.0
        assert reward == COMPILE_TIME_PENALTY


class TestStatsReport:
    def test_table_renders_all_counters(self, pipeline):
        cache = RewardCache()
        measure(cache, pipeline, VECTORIZATION, SAXPY, 0, (8, 2))
        measure(cache, pipeline, VECTORIZATION, SAXPY, 0, (8, 2))
        text = format_cache_stats_table(cache.stats, title="unit").render()
        assert "unit" in text
        assert "hit rate" in text
        assert "compiles avoided" in text

    def test_report_counts_memoised_loop_analyses_after_training(self):
        kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=4, seed=3)))
        framework, _ = NeuroVectorizer.train(
            kernels, TrainingConfig(rl_total_steps=60, rl_batch_size=30)
        )
        try:
            rows = dict(framework.cache_stats_report().rows)
        finally:
            framework.close()
        assert float(rows["loop analyses memoised"]) > 0

    def test_as_dict_roundtrip(self):
        cache = RewardCache()
        payload = cache.stats.as_dict()
        assert set(payload) == {
            "hits",
            "misses",
            "batch_deduplicated",
            "hit_rate",
            "compiles_avoided",
        }
