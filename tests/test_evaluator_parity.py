"""Reward-consumer outputs, frozen before the evaluation handles were merged.

Every reward consumer used to carry its own ``(pipeline, reward_cache,
evaluation_service)`` set and route through a helper that picked one of
them; now each holds one :class:`repro.distributed.EvaluationService`.
The literals below are what the consumers produced at the commit before
that change — comparison speed-ups, raw cycles, decision logs and cache
traffic for every registered task, whole-menu action sweeps, environment
step/batch/greedy rewards for one and three tasks, and compile-service
answers and tiers — so the one-handle wiring is pinned to the same bits.
Every call below is spelled the same way under both wirings (only default
and shared constructor arguments), and the literals are never regenerated.
"""

import hashlib

import numpy as np
import pytest

from repro.cache.reward_cache import RewardCache
from repro.core.framework import build_embedding_model, compare_agents
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.llvm_suite import llvm_vectorizer_suite
from repro.datasets.mibench import mibench_suite
from repro.datasets.polybench import polybench_suite
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.distributed import EvaluationService
from repro.evaluation import ComparisonRunner
from repro.evaluation.figures import action_sweep
from repro.rl.env import MultiTaskEnv, build_samples
from repro.rl.policy import make_policy
from repro.serving import CompileRequest, CompileService, InProcessClient
from repro.tasks import available_tasks, get_task

#: Digests computed on a clean export of the parent commit.
DIGESTS = {
    "compare/vectorization": "234af656c9ccc137aa62056f0e7b4c49c2e620bd",
    "compare/polly-tiling": "46acb943d78de311722965f6df7bdb49157284ce",
    "compare/unrolling": "f8cd55c700aa5f006165323f80a25b14ea344238",
    "sweep/vectorization": "9e6cf77022b2e0e7bd1fdc68e304b9af6f17fe04",
    "sweep/polly-tiling": "deb990b6bd606f95964f85f7a97c786e3ceb9e20",
    "sweep/unrolling": "8eaeb3b9a6671350577ab22b309262f9551fe498",
    "env/one-task": "bd56f85806de5e2d92f6522d4f598a291a90cbf8",
    "env/three-task": "46d035285df001edbaaae644dcceb4027de24fc4",
    "serving/responses": "e7e873fb6f3bd3b83d15ba395d83502c2175b4cc",
    "pooled/comparison": "234af656c9ccc137aa62056f0e7b4c49c2e620bd",
}
#: ``(cache_hits, cache_misses, batch_deduplicated)`` of each comparison.
COMPARE_STATS = {
    "vectorization": (1, 459, 0),
    "polly-tiling": (8, 176, 0),
    "unrolling": (4, 96, 0),
}
#: Compile-service tier counts over the 20-request trace.
SERVING_TIERS = {"cold": 15, "store": 5}


def sha1(rows) -> str:
    return hashlib.sha1(repr(rows).encode()).hexdigest()


def suite_kernels():
    """Two kernels each from LLVM, PolyBench and MiBench, plus four seed-0
    synthetic ones."""
    picked = []
    for suite in (llvm_vectorizer_suite(), polybench_suite(), mibench_suite()):
        picked.extend(list(suite)[:2])
    picked.extend(
        list(generate_synthetic_dataset(SyntheticDatasetConfig(count=4, seed=0)))
    )
    return picked


def comparison_rows(comparison):
    return (
        sorted(
            (kernel, method, value)
            for kernel, row in comparison.speedups.items()
            for method, value in row.items()
        ),
        sorted(
            (kernel, method, value)
            for kernel, row in comparison.cycles.items()
            for method, value in row.items()
        ),
        [
            (entry.kernel, entry.method, entry.site_index, entry.action)
            for entry in comparison.decision_log
        ],
    )


@pytest.mark.parametrize("task", available_tasks())
def test_compare_agents(task):
    cache = RewardCache()
    comparison = compare_agents(
        suite_kernels(), task=task, pipeline=CompileAndMeasure(), reward_cache=cache, seed=0
    )
    stats = (comparison.cache_hits, comparison.cache_misses, cache.stats.batch_deduplicated)
    assert sha1(comparison_rows(comparison)) == DIGESTS[f"compare/{task}"]
    assert stats == COMPARE_STATS[task]


@pytest.mark.parametrize("task", available_tasks())
def test_action_sweep(task):
    kernels = suite_kernels()
    grids = [
        sorted(action_sweep(kernel, task=task).grid.items())
        for kernel in (kernels[0], kernels[-1])
    ]
    assert sha1(grids) == DIGESTS[f"sweep/{task}"]


def env_rows(task_names):
    kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=6, seed=0)))
    model = build_embedding_model(kernels)
    pipeline = CompileAndMeasure()
    tasks = [get_task(name) for name in task_names]
    samples = {
        task.name: build_samples(kernels, model, pipeline, task=task) for task in tasks
    }
    env = MultiTaskEnv(tasks, samples, seed=0)
    rng = np.random.default_rng(0)
    steps = []
    for _ in range(12):
        env.reset()
        sample = env.current_sample()
        action = rng.integers(0, 8, size=2)
        step = env.step(action)
        steps.append((step.reward, sorted(step.info.items())))
        # The same site and action again: answered from the cache.
        decoded = env.action_spaces[sample.task_name].decode(action)
        reward, info = env.evaluate_action(sample, decoded)
        steps.append((reward, sorted(info.items())))
    pairs = [(sample, rng.integers(0, 8, size=2)) for sample in env.next_batch(10)]
    batch = [
        (step.reward, sorted(step.info.items()))
        for step in env.evaluate_batch(pairs + pairs[:3])
    ]
    policy = make_policy("discrete", env.observation_dim, seed=0, spaces=env.action_spaces)
    greedy = env.greedy_rewards(policy)
    return steps, batch, greedy


def test_one_task_env():
    assert sha1(env_rows(["vectorization"])) == DIGESTS["env/one-task"]


def test_three_task_env():
    assert sha1(env_rows(available_tasks())) == DIGESTS["env/three-task"]


def test_compile_service_responses_and_tiers():
    kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=8, seed=0)))
    model = build_embedding_model(kernels)
    spaces = {name: get_task(name).action_space("discrete") for name in available_tasks()}
    policy = make_policy("discrete", model.config.code_vector_dim, seed=0, spaces=spaces)
    service = CompileService(policy, model, tasks=available_tasks())
    client = InProcessClient(service)
    names = available_tasks()
    trace = [
        CompileRequest(
            source=kernels[index % 5].source,
            function_name=kernels[index % 5].function_name,
            task=names[index % len(names)],
            name=kernels[index % 5].name,
        )
        for index in range(20)
    ]
    with service:
        responses = [client.optimize(request) for request in trace]
    rows = [
        (
            response.kernel_name,
            response.task,
            sorted(response.decisions.items()),
            response.cycles,
            response.baseline_cycles,
            response.tier,
            response.error,
        )
        for response in responses
    ]
    assert sha1(rows) == DIGESTS["serving/responses"]
    assert dict(service.report().tier_counts) == SERVING_TIERS


def test_pooled_comparison_runner_matches_serial():
    kernels = suite_kernels()
    tables = []
    for workers in (0, 2):
        service = EvaluationService(CompileAndMeasure(), workers=workers)
        try:
            runner = ComparisonRunner(task="vectorization", evaluation_service=service)
            comparison = runner.run(runner.default_agents(seed=0), kernels)
        finally:
            service.close()
        tables.append(comparison_rows(comparison))
    assert tables[1] == tables[0]
    assert sha1(tables[0]) == DIGESTS["pooled/comparison"]
