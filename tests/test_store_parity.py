"""Reward-store records and cache traffic, frozen before the cache refactor.

Persistence used to be a ``RewardCache`` subclass with its own preload,
eviction and append bookkeeping; it became an optional store the one cache
holds.  The literals below are what the code wrote and counted at the
commit before that change — the record lines of a cold training run's
store segment (header excluded, in file order), its cache hit/miss/dedup
counters, the records a two-worker evaluation service writes, and the
results and records of ``optimize_kernel`` through a store — so the
surviving cache is pinned to the same bytes.  They are never regenerated.
"""

import hashlib
import os
from collections import OrderedDict

from repro.agents.brute_force import BruteForceAgent
from repro.cache.reward_cache import RewardCache
from repro.core.framework import NeuroVectorizer, TrainingConfig, build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService, PersistentRewardStore
from repro.tasks import get_task

SOURCES = OrderedDict(
    dot=(
        "dot",
        "float a[2048], b[2048];\n"
        "float dot() {\n"
        "    float s = 0;\n"
        "    for (int i = 0; i < 2048; i++)\n"
        "        s += a[i] * b[i];\n"
        "    return s;\n"
        "}\n",
    ),
    scale=(
        "scale",
        "float x[2048], y[2048];\n"
        "void scale(float alpha) {\n"
        "    for (int i = 0; i < 2048; i++)\n"
        "        y[i] = alpha * x[i];\n"
        "}\n",
    ),
    saxpy=(
        "saxpy",
        "float u[2048], v[2048];\n"
        "void saxpy(float alpha) {\n"
        "    for (int i = 0; i < 2048; i++)\n"
        "        v[i] = alpha * u[i] + v[i];\n"
        "}\n",
    ),
    shift=(
        "shift",
        "float p[1024][64], q[1024][64];\n"
        "void shift() {\n"
        "    for (int i = 0; i < 1024; i++)\n"
        "        for (int j = 0; j < 64; j++)\n"
        "            q[i][j] = p[i][j] + 1.0f;\n"
        "}\n",
    ),
)

#: Digests computed on a clean export of the parent commit.
DIGESTS = {
    "train/records": "7749784b3982a867c971f6d09765069c88ba15cf",
    "train/weights": "2de8e1c31bf2177c842324f1d853159534934c57",
    "service/records": "3477bfd16fd8d61bfb83b628a0c21af722997b83",
    "optimize/records": "18e51b31e76a5d9ae49fa2a2986ab30da4bb317d",
    "optimize/results": "84b3a15e24e632af282efecf14827869c2d96fc3",
}
TRAIN_RECORDS = 157
#: ``(hits, misses, batch_deduplicated)`` after the cold run's training,
#: and again after its comparison.
TRAIN_STATS = (8, 45, 7)
COMPARE_STATS = (56, 157, 7)


def kernels():
    return [
        LoopKernel(name=name, source=source, function_name=function_name)
        for name, (function_name, source) in SOURCES.items()
    ]


def store_cache(directory):
    return RewardCache(PersistentRewardStore(str(directory)))


def sha1(lines):
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def segments(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".jsonl"))


def records(directory):
    """Every record line of the one segment in ``directory``, header excluded."""
    (name,) = segments(directory)
    with open(os.path.join(directory, name), encoding="utf-8") as handle:
        return handle.read().splitlines()[1:]


def counters(cache):
    return (cache.stats.hits, cache.stats.misses, cache.stats.batch_deduplicated)


def weights(policy):
    sha = hashlib.sha1()
    for parameter in policy.parameters():
        sha.update(parameter.data.tobytes())
    return sha.hexdigest()


def train_and_compare(directory):
    """A seed-0 training run on ``directory``'s store, then its comparison."""
    framework, _ = NeuroVectorizer.train(
        kernels(), TrainingConfig(cache_dir=str(directory), rl_total_steps=60, rl_batch_size=30)
    )
    trained = counters(framework.reward_cache)
    framework.compare_all_tasks(kernels())
    framework.close()
    return framework, trained


def test_cold_run_records_and_cache_traffic(tmp_path):
    framework, trained = train_and_compare(tmp_path)
    lines = records(tmp_path)
    assert framework.reward_cache.preloaded == 0
    assert (len(lines), sha1(lines)) == (TRAIN_RECORDS, DIGESTS["train/records"])
    assert weights(framework.agent.policy) == DIGESTS["train/weights"]
    assert trained == TRAIN_STATS
    assert counters(framework.reward_cache) == COMPARE_STATS


def test_warm_rerun_reads_the_store_and_appends_nothing(tmp_path):
    train_and_compare(tmp_path)
    before = records(tmp_path)
    framework, trained = train_and_compare(tmp_path)
    assert framework.reward_cache.preloaded == TRAIN_RECORDS
    assert trained[1] == 0
    assert weights(framework.agent.policy) == DIGESTS["train/weights"]
    assert len(segments(tmp_path)) == 1
    assert records(tmp_path) == before


def service_records(directory, workers):
    pipeline = CompileAndMeasure()
    task = get_task("vectorization")
    requests = [
        (kernel, 0, action)
        for kernel in kernels()
        for action in task.action_space("discrete").all_actions()
    ]
    cache = store_cache(directory)
    service = EvaluationService(pipeline, cache, workers=workers)
    try:
        outcomes = service.evaluate(requests + requests[:7])
    finally:
        service.close()
        cache.close()
    return [(o.measurement.cycles, o.measurement.compile_seconds) for o in outcomes]


def test_sharded_service_writes_the_serial_records(tmp_path):
    serial = service_records(tmp_path / "serial", workers=0)
    pooled = service_records(tmp_path / "pooled", workers=2)
    assert pooled == serial
    lines = records(tmp_path / "serial")
    assert sorted(records(tmp_path / "pooled")) == sorted(lines)
    assert sha1(sorted(lines)) == DIGESTS["service/records"]


def test_optimize_kernel_through_a_store(tmp_path):
    suite = kernels()
    service = EvaluationService(CompileAndMeasure(), store_cache(tmp_path))
    agent = BruteForceAgent(evaluation_service=service)
    framework = NeuroVectorizer(
        build_embedding_model(suite), agent, evaluation_service=service
    )
    with framework:
        rows = [
            repr(
                (
                    result.kernel_name,
                    sorted(result.decisions.items()),
                    result.cycles,
                    result.baseline_cycles,
                    result.compile_seconds,
                    result.transformed_source,
                )
            )
            for result in framework.optimize_suite(suite)
        ]
    assert sha1(rows) == DIGESTS["optimize/results"]
    assert sha1(records(tmp_path)) == DIGESTS["optimize/records"]
