"""The five end-to-end workloads: train → compare → serve.

Every workload is a ``setup(seed, size, workdir) -> state`` /
``measure(state) -> Outcome`` pair driven by ``worker.py`` in a fresh
interpreter.  ``seed`` feeds the input generators only (which synthetic
kernels, which request trace); the program under test sees generated
kernels and requests and always trains with its own default seed.

Why these five — each stresses a different set of layers, and for every
layer there is one workload that exercises it and one that bypasses it:

* ``train_cold``: the paper's loop with nothing cached.  Its kernels need
  more entries than the 512-entry frontend memo holds, so frontend → IR →
  analysis → simulator and store *writes* dominate.
* ``train_warm_joint``: three tasks, reward store pre-filled by an identical
  run in another process.  The store is only *read*, the simulator does
  nothing during PPO, so ``rl.update`` + ``nn`` + policy forward dominate.
* ``compare_suites``: the Fig. 7/8/9 oracle path (baseline / random / brute
  force on every registered task) — no policy, PPO or store at all.
* ``serve_tcp``: closed loop over loopback, 100 % store tier, so transport +
  admission queue + ``act_batch`` are all the work.
* ``serve_inproc``: no transport, 30 % first-seen kernels, so the cold
  per-request path sets the tail.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cache.reward_cache import RewardCache
from repro.core.framework import NeuroVectorizer, TrainingConfig, compare_agents
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.llvm_suite import llvm_vectorizer_suite, test_benchmarks
from repro.datasets.mibench import mibench_suite
from repro.datasets.polybench import polybench_suite
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.evaluation.report import geometric_mean
from repro.frontend.cache import frontend_cache
from repro.serving import (
    CompileRequest,
    CompileServer,
    CompileService,
    InProcessClient,
    TCPClient,
)
from repro.simulator.cost import memo_stats as cost_memo_stats
from repro.tasks import available_tasks

#: Requests per client window (one ``optimize_many`` call).
WINDOW = 8

#: Workload sizes.  ``full`` is what BENCHMARK.json measures; ``smoke`` is
#: the tier-1 test's few-second version of the same code paths.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "train_cold": {
        # 313 kernels x 3 frontend-memo entries each > the memo's 512 entries.
        "full": {"synthetic": 300, "steps": 6000, "batch": 500,
                 "reward_target": 0.15, "quality_floor": 0.6},
        "smoke": {"synthetic": 6, "steps": 60, "batch": 30,
                  "reward_target": 0.15, "quality_floor": 0.0},
    },
    "train_warm_joint": {
        "full": {"synthetic": 100, "steps": 15000, "batch": 600,
                 "reward_target": 0.05, "quality_floor": 0.0},
        "smoke": {"synthetic": 4, "steps": 60, "batch": 30,
                  "reward_target": 0.05, "quality_floor": 0.0},
    },
    "compare_suites": {
        "full": {"synthetic": 50, "suite_limit": None},
        "smoke": {"synthetic": 2, "suite_limit": 2},
    },
    "serve_tcp": {
        "full": {"hot": 64, "steps": 2000, "batch": 200, "clients": 2,
                 "windows": 100, "cold_share": 0.0},
        "smoke": {"hot": 6, "steps": 40, "batch": 20, "clients": 2,
                  "windows": 4, "cold_share": 0.0},
    },
    "serve_inproc": {
        "full": {"hot": 64, "steps": 2000, "batch": 200, "clients": 1,
                 "windows": 150, "cold_share": 0.3},
        "smoke": {"hot": 6, "steps": 40, "batch": 20, "clients": 1,
                  "windows": 6, "cold_share": 0.3},
    },
}

JOINT_TASKS = ("vectorization", "unrolling", "polly-tiling")
SERVE_TASKS = ("vectorization", "unrolling")
LEARNING_RATE = 5e-4


#: Counters read from the program's public stats; a workload that never
#: touches a layer reports its counters as 0.
LAYER_COUNTERS = (
    "frontend.cache_hit_rate", "frontend.cache_evictions", "simulator.memo_hit_rate",
    "simulator.cost_sweeps", "simulator.swept_configs", "cache.lookups", "cache.misses",
    "cache.hit_rate", "cache.ppo_lookups", "cache.ppo_misses", "store.preloaded",
    "store.bytes", "rl.steps_to_target", "rl.final_reward_mean",
    "rl.distinct_greedy_actions", "quality.heldout_frac_of_bruteforce", "serving.ticks",
    "serving.mean_batch_size", "serving.coalesced_rate", "serving.tier_store",
    "serving.tier_frontend", "serving.tier_cold", "serving.service_window_ms",
    "serving.transport_overhead_ms",
)


@dataclass
class Outcome:
    """What one measured unit reports besides its timings."""

    attempted: int = 0
    failed: int = 0
    #: Failed output checks (each also counts in ``failed``).
    problems: List[str] = field(default_factory=list)
    #: Geomean speed-up over the compiler baseline of the workload's policy on
    #: the 12 held-out kernels (compare_suites: of brute force on its suites).
    quality: float = float("nan")
    #: Values that must repeat exactly between two runs at one seed.
    counts: Dict[str, object] = field(default_factory=dict)
    #: Per-layer counters read from the program's public stats.
    layer: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYER_COUNTERS, 0.0))
    #: Client-side latency per window, serve workloads only.
    window_ms: List[float] = field(default_factory=list)

    def check(self, passed: bool, message: str) -> None:
        if not passed:
            self.problems.append(message)
            self.failed += 1


@dataclass
class Workload:
    setup: Callable
    measure: Callable
    #: Spans that must record at least one call in a traced full-size run.
    live_spans: tuple
    #: Spans that must record none (the bypass predictions).
    dead_spans: tuple = ()
    #: Output checks too slow to run on the clock; called after it stops.
    verify: Optional[Callable] = None
    teardown: Optional[Callable] = None


def synthetic_kernels(count: int, seed: int) -> list:
    return list(generate_synthetic_dataset(SyntheticDatasetConfig(count=count, seed=seed)))


def weights_sha1(policy) -> str:
    digest = hashlib.sha1()
    for parameter in policy.parameters():
        digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _simulator_memo(pipelines) -> tuple:
    stats = [pipeline.simulator_memo_stats() for pipeline in pipelines]
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


class _Counters:
    """Deltas of the frontend, cost and simulator memos over a phase.

    ``pipelines`` are the ones already alive when the phase starts; pipelines
    the phase creates itself are handed to :meth:`into` and start from zero.
    """

    def __init__(self, pipelines=()) -> None:
        self._frontend = frontend_cache().stats.as_dict()
        self._cost = cost_memo_stats()
        self._memo = _simulator_memo(pipelines)

    def into(self, layer: Dict[str, float], pipelines) -> None:
        frontend = frontend_cache().stats.as_dict()
        hits = frontend["hits"] - self._frontend["hits"]
        misses = frontend["misses"] - self._frontend["misses"]
        layer["frontend.cache_hit_rate"] = _rate(hits, misses)
        layer["frontend.cache_evictions"] = frontend["evictions"] - self._frontend["evictions"]
        cost = cost_memo_stats()
        layer["simulator.cost_sweeps"] = cost["sweeps"] - self._cost["sweeps"]
        layer["simulator.swept_configs"] = cost["swept_configs"] - self._cost["swept_configs"]
        memo_hits, memo_misses = _simulator_memo(pipelines)
        layer["simulator.memo_hit_rate"] = _rate(
            memo_hits - self._memo[0], memo_misses - self._memo[1]
        )


def _cache_counters(layer: Dict[str, float], hits: float, misses: float) -> None:
    layer["cache.lookups"] = hits + misses
    layer["cache.misses"] = misses
    layer["cache.hit_rate"] = _rate(hits, misses)


# ---------------------------------------------------------------------------
# train_cold / train_warm_joint
# ---------------------------------------------------------------------------


def _train_config(size, tasks, cache_dir: str) -> TrainingConfig:
    return TrainingConfig(
        tasks=list(tasks) if len(tasks) > 1 else None,
        task=tasks[0],
        rl_total_steps=int(size["steps"]),
        rl_batch_size=int(size["batch"]),
        learning_rate=LEARNING_RATE,
        pretrain_epochs=1,
        workers=0,
        cache_dir=cache_dir,
    )


def _directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
    )


def train_and_compare(kernels, size, tasks, cache_dir: str) -> Outcome:
    """``NeuroVectorizer.train`` → held-out comparison → ``close()``."""
    outcome = Outcome()
    counters = _Counters()
    framework, artifacts = NeuroVectorizer.train(
        kernels, _train_config(size, tasks, cache_dir)
    )
    ppo_stats = framework.reward_cache.stats
    ppo_lookups, ppo_misses = ppo_stats.lookups, ppo_stats.misses
    held_out = list(test_benchmarks())
    comparisons = framework.compare_all_tasks(held_out)
    framework.close()

    # Kernels that yielded no training sample or no comparison row failed.
    outcome.attempted = len(kernels) * len(tasks) + len(held_out) * len(tasks)
    learned, ratios = [], []
    greedy = set()
    for task in tasks:
        sampled = {sample.kernel.name for sample in artifacts.samples_by_task[task]}
        outcome.failed += sum(1 for kernel in kernels if kernel.name not in sampled)
        comparison = comparisons[task]
        rows = [
            row for row in comparison.speedups.values()
            if all(math.isfinite(value) and value > 0 for value in row.values())
        ]
        outcome.failed += len(held_out) - len(rows)
        rl, oracle = comparison.geomean("rl"), comparison.geomean("brute_force")
        learned.append(rl)
        ratios.append(rl / oracle)
        outcome.counts[f"geomean.{task}.rl"] = rl
        outcome.counts[f"geomean.{task}.brute_force"] = oracle
        greedy.update(
            (task, entry.action) for entry in comparison.decision_log
            if entry.method == "rl"
        )
    outcome.quality = geometric_mean(learned)
    # Geomean over the trained tasks of RL ÷ brute force on the held-out 12.
    heldout_frac = geometric_mean(ratios)
    outcome.check(
        heldout_frac >= float(size["quality_floor"]),
        f"heldout_frac_of_bruteforce {heldout_frac:.3f} is below the "
        f"{size['quality_floor']} floor",
    )

    history = artifacts.history
    target = float(size["reward_target"])
    reached = [it.steps_total for it in history.iterations if it.reward_mean >= target]
    # Never reached reads as one batch more than was run.
    steps_to_target = reached[0] if reached else int(size["steps"]) + int(size["batch"])
    policy = framework.agent.policy
    outcome.counts.update({
        "weights_sha1": weights_sha1(policy),
        "cache.ppo_misses": ppo_misses,
        "cache.misses": framework.reward_cache.stats.misses,
        "rl.steps_to_target": steps_to_target,
    })
    layer = outcome.layer
    counters.into(layer, [framework.pipeline])
    stats = framework.reward_cache.stats
    _cache_counters(layer, stats.hits, stats.misses)
    layer["cache.ppo_lookups"] = ppo_lookups
    layer["cache.ppo_misses"] = ppo_misses
    layer["store.preloaded"] = framework.reward_cache.preloaded
    layer["store.bytes"] = _directory_bytes(cache_dir)
    layer["rl.steps_to_target"] = steps_to_target
    layer["rl.final_reward_mean"] = history.final_reward_mean
    layer["rl.distinct_greedy_actions"] = len(greedy)
    layer["quality.heldout_frac_of_bruteforce"] = heldout_frac
    return outcome


def setup_train_cold(seed: int, size, workdir: str):
    held_out = set(test_benchmarks().names())
    kernels = synthetic_kernels(int(size["synthetic"]), seed)
    kernels.extend(k for k in llvm_vectorizer_suite() if k.name not in held_out)
    return {"kernels": kernels, "size": size, "cache_dir": os.path.join(workdir, "store")}


def measure_train_cold(state) -> Outcome:
    outcome = train_and_compare(
        state["kernels"], state["size"], ("vectorization",), state["cache_dir"]
    )
    outcome.check(outcome.layer["store.preloaded"] == 0, "cold run preloaded a store")
    return outcome


def setup_train_warm_joint(seed: int, size, workdir: str):
    """Pre-fill the store with the identical run in a *separate* process, so
    this process's frontend memo, cost memo and simulators start empty."""
    cache_dir = os.path.join(workdir, "store")
    command = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
               "--workload", "train_warm_joint", "--seed", str(seed),
               "--size", str(size["name"]), "--fill", cache_dir]
    filled = subprocess.run(command, check=True, capture_output=True, text=True, timeout=150)
    fill = json.loads(filled.stdout.splitlines()[-1])
    return {"kernels": synthetic_kernels(int(size["synthetic"]), seed), "size": size,
            "cache_dir": cache_dir, "fill": fill, "setup_excess_s": fill["excess_s"]}


def measure_train_warm_joint(state) -> Outcome:
    outcome = train_and_compare(
        state["kernels"], state["size"], JOINT_TASKS, state["cache_dir"]
    )
    fill = state["fill"]
    outcome.check(outcome.layer["cache.ppo_misses"] == 0,
                  f"warm PPO missed the store {outcome.layer['cache.ppo_misses']:.0f} times")
    outcome.check(outcome.counts["weights_sha1"] == fill["weights_sha1"],
                  "warm run's final weights differ from the cold fill run's")
    outcome.check(outcome.layer["store.preloaded"] > 0, "warm run preloaded nothing")
    return outcome


# ---------------------------------------------------------------------------
# compare_suites
# ---------------------------------------------------------------------------


def setup_compare_suites(seed: int, size, workdir: str):
    limit = size["suite_limit"]
    kernels = []
    for suite in (llvm_vectorizer_suite(), polybench_suite(), mibench_suite()):
        kernels.extend(list(suite)[:limit])
    kernels.extend(synthetic_kernels(int(size["synthetic"]), seed))
    return {"kernels": kernels, "seed": seed}


def measure_compare_suites(state) -> Outcome:
    kernels = state["kernels"]
    outcome = Outcome()
    counters = _Counters()
    pipelines = []
    hits = misses = 0
    best = []
    for task in available_tasks():
        pipeline, cache = CompileAndMeasure(), RewardCache()
        comparison = compare_agents(
            kernels, task=task, pipeline=pipeline, reward_cache=cache, seed=state["seed"]
        )
        pipelines.append(pipeline)
        hits += cache.stats.hits
        misses += cache.stats.misses
        outcome.attempted += len(kernels)
        outcome.failed += len(kernels) - len(comparison.speedups)
        for kernel_name, row in comparison.speedups.items():
            oracle = row["brute_force"]
            outcome.check(row["baseline"] == 1.0,
                          f"{task}/{kernel_name}: baseline speed-up {row['baseline']!r} != 1.0")
            outcome.check(all(oracle >= value for value in row.values()),
                          f"{task}/{kernel_name}: brute force {oracle!r} is not the best of {row}")
        for method in comparison.methods:
            outcome.counts[f"geomean.{task}.{method}"] = comparison.geomean(method)
        best.append(comparison.geomean("brute_force"))
    outcome.quality = geometric_mean(best)
    outcome.counts["cache.misses"] = misses
    counters.into(outcome.layer, pipelines)
    _cache_counters(outcome.layer, hits, misses)
    return outcome


# ---------------------------------------------------------------------------
# serve_tcp / serve_inproc
# ---------------------------------------------------------------------------


def _request(kernel, task: str) -> CompileRequest:
    return CompileRequest(
        source=kernel.source,
        function_name=kernel.function_name,
        task=task,
        name=kernel.name,
        bindings=dict(kernel.bindings),
    )


def setup_serve(seed: int, size, workdir: str, tcp: bool):
    """Train the served policy, start the service, warm the hot set, and
    draw the request trace (Zipf(1) over the hot set, plus first-seen
    kernels at ``cold_share``)."""
    hot = synthetic_kernels(int(size["hot"]), seed)
    framework, _artifacts = NeuroVectorizer.train(
        hot,
        TrainingConfig(
            tasks=list(SERVE_TASKS),
            rl_total_steps=int(size["steps"]),
            rl_batch_size=int(size["batch"]),
            learning_rate=LEARNING_RATE,
            pretrain_epochs=1,
        ),
    )
    service = CompileService.from_framework(framework, max_batch_size=16, max_wait_us=2000)
    service.start()
    server = CompileServer(service).start() if tcp else None

    rng = np.random.default_rng(seed)
    clients, windows = int(size["clients"]), int(size["windows"])
    total = clients * windows * WINDOW
    # Exactly cold_share of the requests are first-seen, at seeded positions:
    # a binomial count would move the cold work by +-4 % from seed to seed.
    cold_count = round(total * float(size["cold_share"]))
    cold_slots = np.zeros(total, dtype=bool)
    cold_slots[rng.choice(total, size=cold_count, replace=False)] = True
    hot_sources = {kernel.source for kernel in hot}
    # First-seen kernels come from a disjoint generator seed; any whose
    # source collides with the hot set would not be first-seen, so drop it.
    fresh = [
        kernel
        for kernel in synthetic_kernels(cold_count + len(hot), seed + 7919)
        if kernel.source not in hot_sources
    ][:cold_count]
    zipf = 1.0 / np.arange(1, len(hot) + 1)
    hot_draws = rng.choice(len(hot), size=total, p=zipf / zipf.sum())
    task_draws = rng.integers(len(SERVE_TASKS), size=total)
    trace = []
    fresh_iter = iter(fresh)
    for index in range(total):
        kernel = next(fresh_iter) if cold_slots[index] else hot[hot_draws[index]]
        trace.append((kernel, SERVE_TASKS[task_draws[index]]))
    per_client = [
        [trace[(c * windows + w) * WINDOW:(c * windows + w + 1) * WINDOW]
         for w in range(windows)]
        for c in range(clients)
    ]

    make_client = (lambda: TCPClient.connect(server.address)) if tcp else (
        lambda: InProcessClient(service))
    handles = [make_client() for _ in range(clients)]
    # Warm-up through the measured service itself: every (hot kernel, task)
    # once, so the store tier and the service's observation memo are hot.
    warm = [(kernel, task) for kernel in hot for task in SERVE_TASKS]
    for start in range(0, len(warm), WINDOW):
        handles[0].optimize_many([_request(k, t) for k, t in warm[start:start + WINDOW]])
    return {"framework": framework, "service": service, "server": server,
            "clients": handles, "windows": per_client, "seed": seed}


def _drive(client, windows, results) -> None:
    """Closed loop: the next window is sent when the previous one is answered."""
    for window in windows:
        requests = [_request(kernel, task) for kernel, task in window]
        started = time.perf_counter()
        try:
            responses = client.optimize_many(requests)
        except Exception as error:  # a timeout or a dropped connection fails the window
            results.append((window, None, time.perf_counter() - started, repr(error)))
            continue
        results.append((window, responses, time.perf_counter() - started, None))


def measure_serve(state) -> Outcome:
    outcome = Outcome()
    service, framework = state["service"], state["framework"]
    counters = _Counters([framework.pipeline])
    before = service.report()
    cache_before = service.reward_cache.stats.as_dict()
    results: List[list] = [[] for _ in state["clients"]]
    # The measuring thread is itself client 0, so at most ``clients``
    # generator threads exist (2 on the 2-core sandbox).
    lanes = list(zip(state["clients"], state["windows"], results))
    others = [threading.Thread(target=_drive, args=lane) for lane in lanes[1:]]
    for thread in others:
        thread.start()
    _drive(*lanes[0])
    for thread in others:
        thread.join()
    after = service.report()
    cache_after = service.reward_cache.stats.as_dict()

    service_ms, overhead_ms, answered = [], [], []
    for window, responses, seconds, error in (r for sink in results for r in sink):
        outcome.attempted += len(window)
        if responses is None:
            outcome.failed += len(window)
            outcome.problems.append(f"window failed: {error}")
            continue
        outcome.window_ms.append(seconds * 1000.0)
        slowest = max(response.latency_ms for response in responses)
        service_ms.append(slowest)
        overhead_ms.append(seconds * 1000.0 - slowest)
        for (kernel, task), response in zip(window, responses):
            outcome.check(response.ok, f"{kernel.name}/{task}: {response.error}")
            if response.ok:
                answered.append((kernel, task, response))

    state["answered"] = answered
    tiers = {
        tier: after.tier_counts.get(tier, 0) - before.tier_counts.get(tier, 0)
        for tier in ("store", "frontend", "cold")
    }
    ticks = after.ticks - before.ticks
    batched = after.mean_batch_size * after.ticks - before.mean_batch_size * before.ticks
    requests = after.requests - before.requests
    outcome.counts.update({f"serving.tier_{tier}": count for tier, count in tiers.items()})
    outcome.counts["serving.requests"] = requests
    layer = outcome.layer
    counters.into(layer, [framework.pipeline])
    _cache_counters(layer, cache_after["hits"] - cache_before["hits"],
                    cache_after["misses"] - cache_before["misses"])
    layer.update({f"serving.tier_{tier}": count for tier, count in tiers.items()})
    layer["serving.ticks"] = ticks
    layer["serving.mean_batch_size"] = batched / ticks if ticks else 0.0
    layer["serving.coalesced_rate"] = (
        (after.coalesced - before.coalesced) / requests if requests else 0.0
    )
    layer["serving.service_window_ms"] = float(np.median(service_ms)) if service_ms else 0.0
    layer["serving.transport_overhead_ms"] = float(np.median(overhead_ms)) if overhead_ms else 0.0
    return outcome


def verify_serve(state, outcome: Outcome) -> None:
    """Independent of the service's own claims: on a seeded 5 % sample the
    served decisions must equal what the framework decides when asked
    directly, one kernel at a time.

    The quality of what was served is the served policy's speed-up on the
    held-out 12, the same yardstick as the train workloads; the speed-up
    over the trace itself would swing with which kernels the seed drew.
    """
    comparisons = state["framework"].compare_all_tasks(list(test_benchmarks()))
    outcome.quality = geometric_mean([c.geomean("rl") for c in comparisons.values()])
    answered = state["answered"]
    rng = np.random.default_rng(state["seed"] + 1)
    for index in rng.choice(len(answered), size=max(1, len(answered) // 20), replace=False):
        kernel, task, response = answered[index]
        direct = state["framework"].decide_sites(kernel, task=task)
        outcome.check(response.decisions == direct,
                      f"{kernel.name}/{task}: served {response.decisions} != direct {direct}")


def teardown_serve(state) -> None:
    for client in state["clients"]:
        if hasattr(client, "close"):
            client.close()
    if state["server"] is not None:
        state["server"].stop()
    state["service"].stop(drain=True)
    state["framework"].close()


_TRAIN_SPANS = (
    "frontend.parse", "core.extract_loops", "core.lower_kernel", "core.measure",
    "ir.lower_function", "analysis.analyze_loop", "vectorizer.build_plan",
    "vectorizer.baseline_decide", "embedding.path_contexts", "embedding.embed",
    "embedding.pretrain", "tasks.observation_features", "tasks.apply",
    "rl.build_samples", "rl.collect_batch", "rl.act_batch", "rl.update",
    "rl.fused_minibatch", "nn.adam_step", "nn.clip_gradients",
    "cache.evaluate_requests", "cache.measure", "store.load",
    "evaluation.compare", "agents.brute_force",
)
_SERVE_DEAD = ("rl.update", "rl.fused_minibatch", "rl.collect_batch",
               "evaluation.compare", "agents.brute_force", "store.append", "store.load")

WORKLOADS: Dict[str, Workload] = {
    "train_cold": Workload(
        setup_train_cold, measure_train_cold,
        live_spans=_TRAIN_SPANS + ("simulator.simulate", "simulator.compile_time", "store.append"),
        dead_spans=("serving.next_batch", "serving.codec", "serving.client_round_trip"),
    ),
    "train_warm_joint": Workload(
        setup_train_warm_joint, measure_train_warm_joint,
        live_spans=_TRAIN_SPANS + ("polly.transform",),
        dead_spans=("store.append", "serving.next_batch", "serving.codec",
                    "serving.client_round_trip"),
    ),
    "compare_suites": Workload(
        setup_compare_suites, measure_compare_suites,
        live_spans=("frontend.parse", "core.extract_loops", "core.lower_kernel", "core.measure",
                    "ir.lower_function", "analysis.analyze_loop", "vectorizer.build_plan",
                    "vectorizer.baseline_decide", "simulator.simulate",
                    "simulator.compile_time", "polly.transform", "tasks.apply",
                    "cache.evaluate_requests", "cache.measure", "evaluation.compare",
                    "agents.brute_force"),
        dead_spans=("rl.update", "rl.fused_minibatch", "rl.collect_batch", "rl.act_batch",
                    "nn.adam_step", "embedding.embed", "store.append", "store.load",
                    "serving.next_batch", "serving.codec", "serving.client_round_trip"),
    ),
    "serve_tcp": Workload(
        functools.partial(setup_serve, tcp=True), measure_serve,
        live_spans=("rl.act_batch", "cache.measure", "tasks.apply", "serving.next_batch",
                    "serving.codec", "serving.client_round_trip"),
        dead_spans=_SERVE_DEAD + ("frontend.parse", "simulator.simulate"),
        verify=verify_serve, teardown=teardown_serve,
    ),
    "serve_inproc": Workload(
        functools.partial(setup_serve, tcp=False), measure_serve,
        live_spans=("frontend.parse", "core.extract_loops", "core.lower_kernel", "core.measure",
                    "simulator.simulate", "embedding.embed", "tasks.observation_features",
                    "rl.act_batch", "cache.measure", "tasks.apply", "serving.next_batch",
                    "serving.client_round_trip"),
        dead_spans=_SERVE_DEAD + ("serving.codec",),
        verify=verify_serve, teardown=teardown_serve,
    ),
}


def fill_store(seed: int, size, cache_dir: str) -> Dict[str, object]:
    """The cold run that pre-fills ``train_warm_joint``'s store."""
    outcome = train_and_compare(
        synthetic_kernels(int(size["synthetic"]), seed), size, JOINT_TASKS, cache_dir
    )
    return {"weights_sha1": outcome.counts["weights_sha1"]}


def size_of(workload: str, name: str) -> Dict[str, object]:
    return dict(SIZES[workload][name], name=name)
