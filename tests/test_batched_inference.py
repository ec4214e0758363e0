"""Batched-inference identity guarantees and hot-path memo behaviour.

The batched-inference refactor promises:

* ``act_batch`` over N observations is byte-identical (actions, log-probs,
  values) to N sequential ``act`` calls under the same seed — for
  categorical heads, Gaussian heads, and multi-task grouped batches,
* the same guarantee holds for rollouts collected through a ``workers=2``
  sharded evaluation service,
* the simulator's whole-function memo evicts LRU (not clear-all) and
  reports counters via ``memo_stats()`` / ``cache_stats_report()``,
* the process-wide frontend cache memoizes by content hash with an
  explicit cap and hit/miss/eviction stats.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService
from repro.frontend.cache import FrontendCache, frontend_cache
from repro.rl.policy import MultiTaskPolicy, Policy, make_policy
from repro.rl.spaces import (
    ContinuousPairSpace,
    DiscreteFactorSpace,
)
from repro.simulator.engine import Simulator

_SETTINGS = settings(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

OBS_DIM = 6


def _observations(count: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed + 1000).normal(size=(count, OBS_DIM))


def _assert_outputs_identical(serial, batched):
    assert len(serial) == len(batched)
    for expected, actual in zip(serial, batched):
        assert np.array_equal(expected.action, actual.action)
        assert expected.log_prob == actual.log_prob
        assert expected.value == actual.value


# ---------------------------------------------------------------------------
# act_batch == N sequential acts, byte for byte
# ---------------------------------------------------------------------------


class TestActBatchIdentity:
    @_SETTINGS
    @given(count=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_categorical_heads(self, count, seed):
        observations = _observations(count, seed)
        serial_policy = make_policy("discrete", OBS_DIM, seed=seed)
        serial = [serial_policy.act(row) for row in observations]
        batched_policy = make_policy("discrete", OBS_DIM, seed=seed)
        batched = batched_policy.act_batch(observations)
        _assert_outputs_identical(serial, batched)

    @_SETTINGS
    @given(count=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_gaussian_heads(self, count, seed):
        observations = _observations(count, seed)
        serial_policy = make_policy("continuous2", OBS_DIM, seed=seed)
        serial = [serial_policy.act(row) for row in observations]
        batched_policy = make_policy("continuous2", OBS_DIM, seed=seed)
        batched = batched_policy.act_batch(observations)
        _assert_outputs_identical(serial, batched)

    @_SETTINGS
    @given(count=st.integers(1, 12), seed=st.integers(0, 2**16),
           pattern=st.lists(st.integers(0, 1), min_size=12, max_size=12))
    def test_multi_task_grouped_batches(self, count, seed, pattern):
        spaces = OrderedDict(
            vectorization=DiscreteFactorSpace(),
            unrolling=DiscreteFactorSpace(menus=((1, 2, 4, 8, 16),)),
        )
        names = list(spaces)
        tasks = [names[pattern[i]] for i in range(count)]
        observations = _observations(count, seed)
        serial_policy = MultiTaskPolicy(OBS_DIM, spaces, seed=seed)
        serial = [
            serial_policy.act(row, task=task)
            for row, task in zip(observations, tasks)
        ]
        batched_policy = MultiTaskPolicy(OBS_DIM, spaces, seed=seed)
        batched = batched_policy.act_batch(observations, tasks=tasks)
        _assert_outputs_identical(serial, batched)

    @_SETTINGS
    @given(count=st.integers(1, 10), seed=st.integers(0, 2**16),
           pattern=st.lists(st.integers(0, 1), min_size=10, max_size=10))
    def test_mixed_kind_banks_keep_the_serial_draw_order(self, count, seed, pattern):
        # Discrete and Gaussian banks interleave uniform and normal draws;
        # the batched path must consume the stream in exact row order.
        spaces = OrderedDict(
            vectorization=DiscreteFactorSpace(),
            tiling=ContinuousPairSpace(),
        )
        names = list(spaces)
        tasks = [names[pattern[i]] for i in range(count)]
        observations = _observations(count, seed)
        serial_policy = MultiTaskPolicy(OBS_DIM, spaces, seed=seed)
        serial = [
            serial_policy.act(row, task=task)
            for row, task in zip(observations, tasks)
        ]
        batched_policy = MultiTaskPolicy(OBS_DIM, spaces, seed=seed)
        batched = batched_policy.act_batch(observations, tasks=tasks)
        _assert_outputs_identical(serial, batched)

    @_SETTINGS
    @given(count=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_deterministic_mode(self, count, seed):
        observations = _observations(count, seed)
        serial_policy = make_policy("discrete", OBS_DIM, seed=seed)
        serial = [serial_policy.act(row, deterministic=True) for row in observations]
        batched_policy = make_policy("discrete", OBS_DIM, seed=seed)
        batched = batched_policy.act_batch(observations, deterministic=True)
        _assert_outputs_identical(serial, batched)
        # Deterministic inference must not consume the sampling stream.
        assert (
            serial_policy.rng.random() == batched_policy.rng.random()
        )

    def test_empty_batch(self):
        policy = make_policy("discrete", OBS_DIM, seed=0)
        assert policy.act_batch(np.empty((0, OBS_DIM))) == []

    def test_base_policy_fallback_is_serial(self):
        calls = []

        class SerialOnly(Policy):
            observation_dim = OBS_DIM

            def act(self, observation, deterministic=False, task=None):
                calls.append(task)
                from repro.rl.policy import PolicyOutput

                return PolicyOutput(
                    action=np.zeros(2), log_prob=0.0, value=0.0
                )

        outputs = SerialOnly().act_batch(
            _observations(3, 0), tasks=["a", "b", "a"]
        )
        assert len(outputs) == 3
        assert calls == ["a", "b", "a"]

    def test_batch_then_serial_continues_the_same_stream(self):
        # Splitting one workload into a batched chunk and serial leftovers
        # must land on the same stream state as all-serial.
        observations = _observations(8, 3)
        reference = make_policy("discrete", OBS_DIM, seed=3)
        expected = [reference.act(row) for row in observations]
        split = make_policy("discrete", OBS_DIM, seed=3)
        first = split.act_batch(observations[:5])
        rest = [split.act(row) for row in observations[5:]]
        _assert_outputs_identical(expected, first + rest)


# ---------------------------------------------------------------------------
# Sharded (workers=2) rollouts keep the identity guarantee
# ---------------------------------------------------------------------------

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
void scale() {
    for (int i = 0; i < 512; i++) {
        y[i] = 2.5f * x[i];
    }
}
"""


def _kernels():
    return [
        LoopKernel(name="add", source=ADD_SOURCE, function_name="add_arrays"),
        LoopKernel(name="scale", source=SCALE_SOURCE, function_name="scale"),
    ]


def _collect(batch_size, service=None, serial_policy=False):
    from repro.core.framework import build_embedding_model
    from repro.rl.env import MultiTaskEnv, build_samples
    from repro.rl.ppo import PPOConfig, PPOTrainer

    kernels = _kernels()
    pipeline = CompileAndMeasure()
    embedding = build_embedding_model(kernels)
    samples = build_samples(kernels, embedding, pipeline)
    env = MultiTaskEnv(
        ["vectorization"],
        {"vectorization": samples},
        seed=0,
        shuffle=False,
        evaluation_service=service,
    )
    policy = make_policy("discrete", env.observation_dim, seed=0)
    trainer = PPOTrainer(env, policy, PPOConfig(async_chunk_size=4))
    if serial_policy:
        # Force the pre-refactor per-site path for the reference rollout.
        trainer._act_chunk = lambda samples: [
            policy.act(sample.observation, task=sample.task_name)
            for sample in samples
        ]
    return trainer.collect_batch(batch_size)


class TestShardedRolloutIdentity:
    def test_workers2_batched_rollout_matches_serial_reference(self):
        reference = _collect(12, service=None, serial_policy=True)
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            sharded = _collect(12, service=service)
        for expected, actual in zip(reference[:5], sharded[:5]):
            assert np.array_equal(expected, actual)
        assert reference[5] == sharded[5]  # task names

    def test_serial_batched_rollouts_identical_without_service(self):
        reference = _collect(10, serial_policy=True)
        batched = _collect(10)
        for expected, actual in zip(reference[:5], batched[:5]):
            assert np.array_equal(expected, actual)
        assert reference[5] == batched[5]


# ---------------------------------------------------------------------------
# Simulator whole-function memo: LRU + stats
# ---------------------------------------------------------------------------


class TestSimulatorMemo:
    def _functions(self, count):
        pipeline = CompileAndMeasure()
        functions = []
        for index in range(count):
            source = ADD_SOURCE.replace("add_arrays", f"f{index}")
            kernel = LoopKernel(
                name=f"k{index}", source=source, function_name=f"f{index}"
            )
            functions.append(pipeline.lower_kernel(kernel))
        return functions

    def test_memo_hits_and_misses_counted(self):
        function = self._functions(1)[0]
        simulator = Simulator()
        simulator.simulate(function)
        simulator.simulate(function)
        stats = simulator.memo_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction_keeps_recent_entries(self):
        functions = self._functions(4)
        simulator = Simulator()
        simulator.MAX_MEMO_ENTRIES = 2
        for function in functions:
            simulator.simulate(function)
        stats = simulator.memo_stats()
        assert stats["evictions"] == 2
        assert stats["entries"] == 2
        # The two most recent functions are still warm...
        for function in functions[2:]:
            simulator.simulate(function)
        assert simulator.memo_stats()["hits"] == 2
        # ...and re-simulating an evicted one is a miss, not an error.
        cost = simulator.simulate(functions[0])
        assert cost.total_cycles > 0
        assert simulator.memo_stats()["misses"] == 5

    def test_memoized_cost_identical_to_fresh_simulator(self):
        function = self._functions(1)[0]
        warm = Simulator()
        first = warm.simulate(function).total_cycles
        second = warm.simulate(function).total_cycles
        cold = Simulator().simulate(function).total_cycles
        assert first == second == cold

    def test_pipeline_aggregates_memo_stats(self):
        pipeline = CompileAndMeasure()
        kernel = _kernels()[0]
        pipeline.measure_baseline(kernel)
        pipeline.measure_baseline(kernel)
        totals = pipeline.simulator_memo_stats()
        assert totals["simulators"] == 1
        assert totals["hits"] >= 1
        assert totals["misses"] >= 1
        assert 0.0 < totals["hit_rate"] <= 1.0
        assert totals["playbook_entries"] >= 1

    def test_cache_stats_report_surfaces_memo_counts(self):
        from repro.core.framework import NeuroVectorizer, build_embedding_model
        from repro.agents.baseline import BaselineAgent

        kernels = _kernels()
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        framework = NeuroVectorizer(
            embedding, BaselineAgent(pipeline), evaluation_service=EvaluationService(pipeline)
        )
        framework.optimize_kernel(kernels[0])
        rendered = framework.cache_stats_report().render()
        assert "simulator memo hits" in rendered
        assert "frontend cache hits" in rendered


# ---------------------------------------------------------------------------
# Process-wide frontend cache
# ---------------------------------------------------------------------------


class TestFrontendCache:
    def test_parse_memoizes_by_content_hash(self):
        cache = FrontendCache(capacity=8)
        first = cache.parse(ADD_SOURCE, filename="k.c")
        second = cache.parse(ADD_SOURCE, filename="k.c")
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        # The filename only labels diagnostics: same text, same entry.
        assert cache.parse(ADD_SOURCE, filename="other.c") is first
        assert cache.stats.misses == 1 and len(cache) == 1

    def test_capacity_evicts_lru(self):
        cache = FrontendCache(capacity=2)
        sources = [ADD_SOURCE.replace("256", str(n)) for n in (16, 32, 64)]
        for source in sources:
            cache.parse(source)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # Oldest entry is gone: parsing it again misses.
        cache.parse(sources[0])
        assert cache.stats.misses == 4

    def test_disable_recomputes(self):
        cache = FrontendCache(capacity=8)
        warm = cache.parse(ADD_SOURCE)
        cache.disable()
        fresh = cache.parse(ADD_SOURCE)
        assert warm is not fresh
        cache.enable()
        assert cache.parse(ADD_SOURCE) is warm

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FrontendCache(capacity=0)
        cache = FrontendCache(capacity=2)
        with pytest.raises(ValueError):
            cache.set_capacity(0)

    def test_pipelines_share_the_process_wide_store(self):
        cache = frontend_cache()
        cache.clear()
        kernel = _kernels()[0]
        CompileAndMeasure().lower_kernel(kernel)
        misses_after_first = cache.stats.misses
        CompileAndMeasure().lower_kernel(kernel)
        assert cache.stats.misses == misses_after_first
        assert cache.stats.hits >= 1

    def test_env_reconfigures_live_instance(self, monkeypatch):
        # Regression: REPRO_FRONTEND_CACHE[_CAPACITY] used to be read only
        # at first touch, so env changes after process start (including
        # between disable()/re-enable cycles) were silently ignored.
        import repro.frontend.cache as module

        monkeypatch.setattr(module, "_GLOBAL_CACHE", None)
        monkeypatch.setattr(module, "_GLOBAL_ENV", None)
        monkeypatch.setenv("REPRO_FRONTEND_CACHE_CAPACITY", "4")
        monkeypatch.delenv("REPRO_FRONTEND_CACHE", raising=False)
        cache = module.frontend_cache()
        assert cache.capacity == 4 and cache.enabled
        # A programmatic disable survives later calls while the env is
        # unchanged (env must not clobber explicit configuration).
        cache.disable()
        assert module.frontend_cache() is cache
        assert not cache.enabled
        # A capacity change applies mid-process — to the live instance,
        # not a replacement — and leaves the disabled state alone.
        monkeypatch.setenv("REPRO_FRONTEND_CACHE_CAPACITY", "9")
        assert module.frontend_cache() is cache
        assert cache.capacity == 9
        assert not cache.enabled
        cache.enable()
        # Toggling the env off applies once...
        monkeypatch.setenv("REPRO_FRONTEND_CACHE", "0")
        module.frontend_cache()
        assert not cache.enabled
        # ...but does not keep re-disabling: a programmatic re-enable
        # sticks for as long as the env value stays the same.
        cache.enable()
        module.frontend_cache()
        assert cache.enabled

    def test_loop_extraction_shares_parse_results(self):
        from repro.core.loop_extractor import extract_loops

        cache = frontend_cache()
        cache.clear()
        first = extract_loops(ADD_SOURCE, filename="k.c")
        second = extract_loops(ADD_SOURCE, filename="k.c")
        assert len(first) == 1
        # Fresh list per call, shared ExtractedLoop objects underneath.
        assert first is not second
        assert first[0] is second[0]
        assert cache.stats.hits >= 1
