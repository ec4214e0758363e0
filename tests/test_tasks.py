"""Tests for the pluggable optimization-task API (repro.tasks)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.agents.brute_force import BruteForceAgent
from repro.agents.random_search import RandomSearchAgent
from repro.cache.reward_cache import (
    CachedMeasurement,
    RewardCache,
    RewardKey,
)
from repro.core.framework import (
    NeuroVectorizer,
    OptimizationResult,
    TrainingConfig,
    build_embedding_model,
)
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService, PersistentRewardStore
from repro.distributed.store import SCHEMA_NAME
from repro.rl.env import MultiTaskEnv, build_samples
from repro.rl.spaces import DiscreteFactorSpace, default_action_space
from repro.tasks import (
    OptimizationTask,
    PollyTilingTask,
    VectorizationTask,
    available_tasks,
    get_task,
    register_task,
    resolve_task,
)


TWO_NEST_SOURCE = """
float A[512][512], B[512][512], C[512][512];

void kernel() {
    for (int i = 0; i < 512; i++) {
        for (int j = 0; j < 512; j++) {
            C[i][j] = 0.0f;
        }
    }
    for (int i2 = 0; i2 < 512; i2++) {
        for (int k = 0; k < 512; k++) {
            C[i2][k] = C[i2][k] + A[i2][k] * B[k][i2];
        }
    }
}
"""

STREAM_SOURCE = """
float x[2048], y[2048];
void scale(float alpha) {
    for (int i = 0; i < 2048; i++) {
        y[i] = alpha * x[i];
    }
}
"""


def two_nest_kernel() -> LoopKernel:
    return LoopKernel(name="two_nest", source=TWO_NEST_SOURCE, function_name="kernel")


def stream_kernel() -> LoopKernel:
    return LoopKernel(name="stream", source=STREAM_SOURCE, function_name="scale")


def outcome_tuples(outcomes):
    return [(o.measurement.cycles, o.measurement.compile_seconds) for o in outcomes]


class ScalarizeTask(OptimizationTask):
    """Module-level custom task (picklable) used by the worker tests.

    One boolean decision per innermost loop: force scalar code or apply the
    configured vector factors.  Deliberately NOT registered with
    ``register_task`` — workers must receive it as a shipped object.
    """

    name = "test-scalarize"
    action_labels = ("scalar",)
    menus = ((0, 1),)

    def __init__(self, vector_factors=(8, 2)):
        self.vector_factors = tuple(vector_factors)

    def decision_sites(self, kernel):
        return VectorizationTask().decision_sites(kernel)

    def evaluate(self, pipeline, kernel, site_index, action):
        (scalar,) = self.cache_key(action)
        factors = (1, 1) if scalar else self.vector_factors
        return pipeline.measure_with_factors(kernel, {site_index: factors})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_both_tasks_registered(self):
        names = available_tasks()
        assert "vectorization" in names
        assert "polly-tiling" in names

    def test_get_task_instantiates(self):
        assert isinstance(get_task("vectorization"), VectorizationTask)
        assert isinstance(get_task("polly-tiling"), PollyTilingTask)

    def test_unknown_task_error_lists_registered(self):
        with pytest.raises(ValueError) as excinfo:
            get_task("phase-ordering")
        message = str(excinfo.value)
        assert "phase-ordering" in message
        assert "vectorization" in message
        assert "polly-tiling" in message

    def test_resolve_task_default_is_vectorization(self):
        assert resolve_task(None).name == "vectorization"

    def test_resolve_task_accepts_name_and_instance(self):
        task = PollyTilingTask()
        assert resolve_task("polly-tiling").name == "polly-tiling"
        assert resolve_task(task) is task

    def test_resolve_task_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_task(42)

    def test_duplicate_registration_rejected_unless_overwritten(self):
        register_task("test-dummy-task", VectorizationTask, overwrite=True)
        with pytest.raises(ValueError):
            register_task("test-dummy-task", VectorizationTask)
        register_task("test-dummy-task", PollyTilingTask, overwrite=True)
        assert isinstance(get_task("test-dummy-task"), PollyTilingTask)


# ---------------------------------------------------------------------------
# Backward-compat shims
# ---------------------------------------------------------------------------


class TestBackwardCompat:
    def test_default_action_space_matches_vectorization_task(self):
        space = default_action_space()
        assert isinstance(space, DiscreteFactorSpace)
        assert space.num_actions == 35
        task_space = VectorizationTask().action_space("discrete")
        assert task_space.menus == space.menus

    def test_training_config_defaults_to_vectorization(self):
        config = TrainingConfig()
        assert config.task == "vectorization"
        assert resolve_task(config.task).name == "vectorization"

    def test_env_without_task_uses_vectorization(self):
        kernels = [stream_kernel()]
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        samples = build_samples(kernels, embedding, pipeline)
        assert {sample.task_name for sample in samples} == {"vectorization"}
        env = MultiTaskEnv(
            ["vectorization"],
            {"vectorization": samples},
            evaluation_service=EvaluationService(pipeline),
            shuffle=False,
        )
        env.reset()
        result = env.step((2, 1))
        assert result.info["vf"] == 4.0
        assert result.info["interleave"] == 2.0

    def test_different_task_same_action_never_collides(self):
        cache = RewardCache()
        machine = CompileAndMeasure().machine
        vector_key = cache.key_for(
            stream_kernel(), machine, 0, action=(1, 1), task="vectorization"
        )
        polly_key = cache.key_for(
            stream_kernel(), machine, 0, action=(1, 1), task="polly-tiling"
        )
        assert vector_key != polly_key
        cache.put(vector_key, CachedMeasurement(1.0, 0.1))
        assert cache.peek(polly_key) is None


# ---------------------------------------------------------------------------
# VectorizationTask
# ---------------------------------------------------------------------------


class TestVectorizationTask:
    def test_decision_sites_match_extracted_loops(self):
        task = VectorizationTask()
        kernel = two_nest_kernel()
        sites = task.decision_sites(kernel)
        loops = extract_loops(kernel.source, function_name=kernel.function_name)
        assert [site.index for site in sites] == [loop.loop_index for loop in loops]

    def test_evaluate_matches_measure_with_factors(self):
        task = VectorizationTask()
        pipeline = CompileAndMeasure()
        kernel = stream_kernel()
        via_task = task.evaluate(pipeline, kernel, 0, (8, 2))
        direct = pipeline.measure_with_factors(kernel, {0: (8, 2)})
        assert via_task.cycles == direct.cycles

    def test_apply_injects_pragmas(self):
        task = VectorizationTask()
        application = task.apply(
            CompileAndMeasure(), stream_kernel(), {0: (8, 2)}
        )
        assert "#pragma clang loop" in application.transformed_source
        assert application.decisions == {0: (8, 2)}

    def test_cache_key_validates_dimensions(self):
        with pytest.raises(ValueError):
            VectorizationTask().cache_key((1, 2, 3))

    def test_cache_key_rejects_out_of_menu_values(self):
        # Accepting them would alias distinct cache entries for inputs the
        # transform treats identically (e.g. any truthy fuse flag).
        with pytest.raises(ValueError, match="menu"):
            VectorizationTask().cache_key((3, 1))
        with pytest.raises(ValueError, match="fuse"):
            PollyTilingTask().cache_key((8, 8))


# ---------------------------------------------------------------------------
# PollyTilingTask
# ---------------------------------------------------------------------------


class TestPollyTilingTask:
    def test_one_site_per_top_level_nest(self):
        from repro.ir.nodes import Loop

        task = PollyTilingTask()
        kernel = two_nest_kernel()
        sites = task.decision_sites(kernel)
        ir = CompileAndMeasure().lower_kernel(kernel)
        top_level = [node for node in ir.body if isinstance(node, Loop)]
        assert len(sites) == len(top_level) == 2
        assert [site.index for site in sites] == [0, 1]

    def test_default_action_is_identity(self):
        task = PollyTilingTask()
        pipeline = CompileAndMeasure()
        kernel = two_nest_kernel()
        baseline = pipeline.measure_baseline(kernel)
        untouched = task.evaluate(pipeline, kernel, 0, task.default_action())
        assert untouched.cycles == baseline.cycles

    def test_tiling_action_changes_the_loop_structure(self):
        task = PollyTilingTask()
        pipeline = CompileAndMeasure()
        kernel = two_nest_kernel()
        before = len(pipeline.lower_kernel(kernel).all_loops())
        application = task.apply(pipeline, kernel, {0: (32, 0), 1: (32, 0)})
        assert "tiled 2 nest(s)" in application.description
        assert application.result.cycles != pipeline.measure_baseline(kernel).cycles
        # The original IR is untouched by the transform.
        assert len(pipeline.lower_kernel(kernel).all_loops()) == before

    def test_evaluate_is_deterministic(self):
        task = PollyTilingTask()
        pipeline = CompileAndMeasure()
        kernel = two_nest_kernel()
        first = task.evaluate(pipeline, kernel, 1, (16, 1))
        second = task.evaluate(pipeline, kernel, 1, (16, 1))
        assert first.cycles == second.cycles
        assert first.compile_seconds == second.compile_seconds

    def test_action_space_menus(self):
        task = PollyTilingTask()
        space = task.action_space("discrete")
        assert space.menus == task.menus
        assert space.sizes == (6, 2)
        assert task.action_labels == ("tile", "fuse")

    def test_conditional_wrapped_nest_keeps_site_indices_aligned(self):
        # Regression: a nest inside an ``if`` is its own decision site, so
        # the transform walk must recurse through conditionals — counting
        # only direct body children would apply site 1's decision to the
        # third nest and silently drop site 2's.
        source = """
        float a[4096], b[4096], c[4096];
        void kernel(int flag) {
            for (int i = 0; i < 4096; i++) {
                a[i] = a[i] + 1.0f;
            }
            if (flag) {
                for (int j = 0; j < 4096; j++) {
                    b[j] = b[j] * 2.0f;
                }
            }
            for (int k = 0; k < 4096; k++) {
                c[k] = c[k] + a[k];
            }
        }
        """
        kernel = LoopKernel(name="guarded", source=source, function_name="kernel")
        task = PollyTilingTask()
        pipeline = CompileAndMeasure()
        sites = task.decision_sites(kernel)
        assert len(sites) == 3

        # Tiling exactly one site must tile exactly one nest — the right one.
        for index in range(3):
            application = task.apply(pipeline, kernel, {index: (64, 0)})
            assert "tiled 1 nest(s)" in application.description

        def loop_vars(function):
            return sorted(loop.var for loop in function.all_loops())

        baseline_vars = loop_vars(pipeline.lower_kernel(kernel))
        transformed, tiled, _ = task._transform(pipeline, kernel, {2: (64, 0)})
        assert tiled == 1
        # Site 2 is the loop over k: only k gained a tile loop.
        assert sorted(set(loop_vars(transformed)) - set(baseline_vars)) == ["k_tile"]

    def test_env_step_reports_task_labels(self):
        kernels = [two_nest_kernel()]
        task = PollyTilingTask()
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        samples = build_samples(kernels, embedding, pipeline, task=task)
        assert len(samples) == 2
        env = MultiTaskEnv(
            [task],
            {task.name: samples},
            evaluation_service=EvaluationService(pipeline),
            shuffle=False,
        )
        env.reset()
        result = env.step((3, 1))  # menu indices -> tile 32, fuse 1
        assert result.info["tile"] == 32.0
        assert result.info["fuse"] == 1.0
        assert "vf" not in result.info


# ---------------------------------------------------------------------------
# End-to-end training and agents on the Polly task
# ---------------------------------------------------------------------------


class TestPollyEndToEnd:
    @pytest.fixture(scope="class")
    def trained(self):
        kernels = [two_nest_kernel(), stream_kernel()]
        config = TrainingConfig(
            task="polly-tiling",
            rl_total_steps=48,
            rl_batch_size=24,
            learning_rate=1e-3,
            pretrain_epochs=1,
            pretrain_samples=2,
            seed=0,
        )
        framework, artifacts = NeuroVectorizer.train(kernels, config)
        yield framework, artifacts, kernels
        framework.close()

    def test_training_runs_and_sets_task(self, trained):
        framework, artifacts, _ = trained
        assert framework.task.name == "polly-tiling"
        assert len(artifacts.history.iterations) == 2

    def test_optimize_kernel_returns_task_result(self, trained):
        framework, _, kernels = trained
        result = framework.optimize_kernel(kernels[0])
        assert isinstance(result, OptimizationResult)
        assert result.task == "polly-tiling"
        assert set(result.decisions) <= {0, 1}
        for action in result.decisions.values():
            assert action[0] in framework.task.menus[0]
            assert action[1] in framework.task.menus[1]
        assert result.baseline_cycles > 0

    def test_repeat_optimize_kernel_is_served_from_the_cache(self, trained):
        from repro.simulator.engine import Simulator

        framework, _, kernels = trained
        first = framework.optimize_kernel(kernels[0])
        calls = {"n": 0}
        original = Simulator.simulate

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        Simulator.simulate = counting
        try:
            second = framework.optimize_kernel(kernels[0])
        finally:
            Simulator.simulate = original
        assert calls["n"] == 0
        assert second.cycles == first.cycles
        assert second.decisions == first.decisions

    def test_mismatched_agent_task_rejected_at_construction(self):
        # A vectorization brute-force agent under a polly framework would
        # silently apply (VF, IF) choices as (tile, fuse) — both are 2-dim.
        kernels = [stream_kernel()]
        embedding = build_embedding_model(kernels)
        agent = BruteForceAgent()  # defaults to vectorization
        with pytest.raises(ValueError, match="vectorization"):
            NeuroVectorizer(embedding, agent, task=PollyTilingTask())

    def test_brute_force_agent_searches_polly_grid(self):
        task = PollyTilingTask()
        cache = RewardCache()
        agent = BruteForceAgent(
            evaluation_service=EvaluationService(CompileAndMeasure(), cache), task=task
        )
        decision = agent.select_factors(
            np.zeros(4), kernel=two_nest_kernel(), loop_index=0
        )
        assert decision.as_tuple() in task.action_space("discrete").all_actions()
        # The whole 6x2 grid was evaluated exactly once.
        assert cache.stats.misses == 12

    def test_random_search_agent_draws_from_polly_menus(self):
        task = PollyTilingTask()
        agent = RandomSearchAgent(seed=3, task=task)
        for index in range(16):
            decision = agent.select_factors(
                np.zeros(2), kernel=two_nest_kernel(), loop_index=index
            )
            tile, fuse = decision.as_tuple()
            assert tile in task.menus[0]
            assert fuse in task.menus[1]


# ---------------------------------------------------------------------------
# Sharded evaluation identity (both tasks)
# ---------------------------------------------------------------------------


class TestShardedIdentity:
    def test_vectorization_workers_match_serial(self):
        requests = [
            (kernel, 0, (vf, interleave))
            for kernel in (two_nest_kernel(), stream_kernel())
            for vf in (1, 4, 16)
            for interleave in (1, 2)
        ]
        serial = outcome_tuples(
            EvaluationService(CompileAndMeasure(), workers=0).evaluate(requests)
        )
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            parallel = outcome_tuples(service.evaluate(requests))
        assert parallel == serial

    def test_polly_workers_match_serial(self):
        task = PollyTilingTask()
        requests = [
            (kernel, site, (tile, fuse))
            for kernel in (two_nest_kernel(), stream_kernel())
            for site in (0, 1)
            for tile in (1, 16, 64)
            for fuse in (0, 1)
        ]
        serial = outcome_tuples(
            EvaluationService(CompileAndMeasure(), workers=0).evaluate(
                requests, task=task
            )
        )
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            parallel = outcome_tuples(service.evaluate(requests, task=task))
        assert parallel == serial

    def test_reconfigured_same_name_task_is_reshipped_to_workers(self):
        # A second instance reusing the task name must be re-shipped, not
        # silently evaluated with the first instance's configuration.
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            service.evaluate(
                [(two_nest_kernel(), 0, (0,))], task=ScalarizeTask((8, 2))
            )
            wide = ScalarizeTask((64, 16))
            # A different kernel, so nothing is answered from the cache.
            parallel = outcome_tuples(
                service.evaluate([(stream_kernel(), 0, (0,))], task=wide)
            )
        serial = outcome_tuples(
            EvaluationService(CompileAndMeasure(), workers=0).evaluate(
                [(stream_kernel(), 0, (0,))], task=ScalarizeTask((64, 16))
            )
        )
        assert parallel == serial

    def test_unregistered_custom_task_evaluates_in_workers(self):
        # The task object is shipped to workers with the first request, so
        # a task the worker process never registered still evaluates — and
        # identically to the serial path.
        task = ScalarizeTask()
        requests = [
            (kernel, 0, (scalar,))
            for kernel in (two_nest_kernel(), stream_kernel())
            for scalar in (0, 1)
        ]
        serial = outcome_tuples(
            EvaluationService(CompileAndMeasure(), workers=0).evaluate(
                requests, task=task
            )
        )
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            parallel = outcome_tuples(service.evaluate(requests, task=task))
        assert parallel == serial


# ---------------------------------------------------------------------------
# Store schema versioning
# ---------------------------------------------------------------------------


class TestStoreSchemaVersioning:
    @staticmethod
    def _write_v1_segment(directory: str) -> str:
        """A pre-redesign segment: version-1 header, (vf, if) key columns."""
        path = os.path.join(directory, "segment-legacy.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": SCHEMA_NAME, "version": 1}) + "\n")
            handle.write(
                json.dumps(
                    {
                        "key": ["a" * 40, "b" * 40, 0, 4, 2, 256],
                        "cycles": 123.0,
                        "compile_seconds": 0.5,
                    }
                )
                + "\n"
            )
        return path

    def test_pre_redesign_segment_is_skipped_not_mis_hit(self, tmp_path):
        self._write_v1_segment(str(tmp_path))
        store = PersistentRewardStore(str(tmp_path))
        assert store.load() == {}
        assert store.stats.segments_skipped == 1
        assert store.stats.records_loaded == 0

    def test_disk_cache_over_stale_store_preloads_nothing(self, tmp_path):
        self._write_v1_segment(str(tmp_path))
        cache = RewardCache(PersistentRewardStore(str(tmp_path)))
        assert cache.preloaded == 0
        # The stale key shape can never be looked up: every v2 key carries a
        # task tag and action tuple, so no query maps onto the old record.
        key = cache.key_for(
            stream_kernel(), CompileAndMeasure().machine, 0, (4, 2), "vectorization"
        )
        assert cache.peek(key) is None
        cache.close()

    def test_task_tagged_keys_round_trip_through_store(self, tmp_path):
        key = RewardKey(
            kernel_hash="k" * 40,
            machine_hash="m" * 40,
            loop_index=1,
            action=(32, 1),
            task="polly-tiling",
            default_symbol_value=256,
        )
        store = PersistentRewardStore(str(tmp_path))
        store.append(key, CachedMeasurement(cycles=77.0, compile_seconds=0.25))
        store.close()
        reloaded = PersistentRewardStore(str(tmp_path)).load()
        assert reloaded == {key: CachedMeasurement(77.0, 0.25)}
        (loaded_key,) = reloaded
        assert loaded_key.task == "polly-tiling"
        assert loaded_key.action == (32, 1)


# ---------------------------------------------------------------------------
# Custom tasks plug in end-to-end
# ---------------------------------------------------------------------------


class TestCustomTask:
    def test_minimal_custom_task_runs_through_the_env(self):
        class ToggleTask(OptimizationTask):
            """One boolean decision per innermost loop: scalarize or not."""

            name = "test-toggle"
            action_labels = ("scalar",)
            menus = ((0, 1),)

            def decision_sites(self, kernel):
                return VectorizationTask().decision_sites(kernel)

            def evaluate(self, pipeline, kernel, site_index, action):
                (scalar,) = self.cache_key(action)
                factors = (1, 1) if scalar else (8, 2)
                return pipeline.measure_with_factors(kernel, {site_index: factors})

        task = ToggleTask()
        kernels = [stream_kernel()]
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        samples = build_samples(kernels, embedding, pipeline, task=task)
        env = MultiTaskEnv(
            [task],
            {task.name: samples},
            evaluation_service=EvaluationService(pipeline),
            shuffle=False,
        )
        env.reset()
        result = env.step((0,))
        assert result.info["scalar"] == 0.0
        env.reset()
        other = env.step((1,))
        assert other.info["scalar"] == 1.0
        assert other.reward != result.reward
