"""The optimization environment: a contextual bandit over site embeddings.

Generic over an :class:`repro.tasks.OptimizationTask`: the task defines the
decision sites of each kernel, the action menus, and how a chosen action is
measured.  The default task reproduces the paper's per-loop (VF, IF)
vectorization decision; ``VectorizationEnv`` keeps its name but serves
every task, and an action is always the task's tuple.

:class:`MultiTaskEnv` is the joint-training environment: it interleaves
the decision sites of several tasks over one kernel set, tags every
observation with its task id (so a task-conditioned policy can route to
the right head bank), and routes each reward through its own task's cache
key — one shared reward store and evaluation service serve all tasks
without collisions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cache.reward_cache import (
    CachedMeasurement,
    RewardCache,
    evaluate_requests,
    resolve_cache,
)
from repro.core.loop_extractor import ExtractedLoop
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.embedding.code2vec import Code2VecModel
from repro.rl.spaces import ActionSpace
from repro.tasks import DecisionSite, OptimizationTask, resolve_task, resolve_tasks


@dataclass
class EnvSample:
    """One training sample: a specific decision site of a specific kernel."""

    kernel: LoopKernel
    loop_index: int
    observation: np.ndarray
    baseline_cycles: float
    baseline_compile_seconds: float
    extracted: Optional[ExtractedLoop] = None
    site: Optional[DecisionSite] = None


def build_samples(
    kernels: Sequence[LoopKernel],
    embedding_model: Code2VecModel,
    pipeline: Optional[CompileAndMeasure] = None,
    max_contexts: int = 200,
    task: Optional[OptimizationTask] = None,
) -> List[EnvSample]:
    """Embed every decision site of every kernel and record its baseline.

    Kernels whose sites cannot be extracted or measured are skipped (the
    paper likewise drops programs that fail to compile).
    """
    pipeline = pipeline or CompileAndMeasure()
    task = resolve_task(task)
    samples: List[EnvSample] = []
    for kernel in kernels:
        try:
            sites = task.decision_sites(kernel)
            baseline = pipeline.measure_baseline(kernel)
        except Exception:
            continue
        for site in sites:
            observation = task.observation_features(
                site, embedding_model, max_contexts=max_contexts
            )
            extracted = site.payload if isinstance(site.payload, ExtractedLoop) else None
            samples.append(
                EnvSample(
                    kernel=kernel,
                    loop_index=site.index,
                    observation=observation,
                    baseline_cycles=baseline.cycles,
                    baseline_compile_seconds=baseline.compile_seconds,
                    extracted=extracted,
                    site=site,
                )
            )
    return samples


@dataclass
class StepResult:
    """What one environment step returns."""

    reward: float
    info: Dict[str, float] = field(default_factory=dict)


class VectorizationEnv:
    """Contextual-bandit environment over a set of decision-site samples.

    ``reset`` returns the embedding of the next site; ``step`` takes the
    agent's raw action, decodes it through the configured action space to
    the task's concrete action tuple, measures the kernel with that action
    applied to the chosen site (other sites stay at the compiler default),
    and returns the reward

        reward = (t_baseline - t_agent) / t_baseline                  (Eq. 2)

    with the §3.4 rule: if the estimated compile time exceeds
    ``compile_time_limit`` times the baseline's compile time the reward is
    the penalty (-9) instead.
    """

    def __init__(
        self,
        samples: Sequence[EnvSample],
        pipeline: Optional[CompileAndMeasure] = None,
        action_space: Optional[ActionSpace] = None,
        compile_time_limit: float = 10.0,
        compile_time_penalty: float = -9.0,
        shuffle: bool = True,
        seed: int = 0,
        reward_cache: Optional[RewardCache] = None,
        evaluation_service=None,
        task: Optional[OptimizationTask] = None,
    ):
        if not samples:
            raise ValueError("the environment needs at least one sample")
        self.samples = list(samples)
        self.pipeline = pipeline or CompileAndMeasure()
        self.task = resolve_task(task)
        self.action_space = action_space or self.task.action_space("discrete")
        self.compile_time_limit = compile_time_limit
        self.compile_time_penalty = compile_time_penalty
        self.shuffle = shuffle
        self.rng = np.random.default_rng(seed)
        self._order = np.arange(len(self.samples))
        self._cursor = 0
        self._current: Optional[EnvSample] = None
        self.observation_dim = int(self.samples[0].observation.shape[0])
        self.total_steps = 0
        # An optional repro.distributed.EvaluationService: batched queries
        # route through it (sharded workers / persistent store) instead of a
        # per-call batcher.  Its cache is adopted unless one was given.
        self.evaluation_service = evaluation_service
        # Shared with other envs/agents when passed in; rewards are derived
        # from cached raw measurements so each env applies its own penalty.
        self.reward_cache = resolve_cache(reward_cache, evaluation_service)

    # -- episode control -------------------------------------------------------------

    def reset(self) -> np.ndarray:
        if self._cursor >= len(self._order):
            self._cursor = 0
            if self.shuffle:
                self.rng.shuffle(self._order)
        self._current = self.samples[self._order[self._cursor]]
        self._cursor += 1
        return self._current.observation

    def peek_upcoming(self, count: int) -> List[EnvSample]:
        """The next ``count`` samples rollout order will serve — read-only.

        Consumes no RNG and moves no cursor, so interleaving peeks with
        ``reset``/``next_batch`` leaves rollouts byte-identical.  At an
        epoch boundary the *exact* next-epoch order is unknowable without
        consuming the shuffle draw, so the stable sample order stands in —
        speculation needs likely candidates, not the precise sequence.
        """
        count = max(0, int(count))
        if self._cursor >= len(self._order):
            return [self.samples[i] for i in range(min(count, len(self.samples)))]
        end = min(self._cursor + count, len(self._order))
        return [self.samples[i] for i in self._order[self._cursor:end]]

    def current_sample(self) -> EnvSample:
        if self._current is None:
            raise RuntimeError("call reset() before step()")
        return self._current

    @property
    def current_task_name(self) -> str:
        """Task id tag of the observation (constant for single-task envs)."""
        return self.task.name

    def set_action_spaces(self, spaces: Mapping[str, ActionSpace]) -> None:
        """Adopt a single-task policy's action space.

        ``spaces`` is the policy's ``task name -> ActionSpace`` mapping.  A
        lone bank named for this env's task, or the unnamed
        :data:`repro.rl.policy.DEFAULT_HEAD` bank, is adopted.  A lone bank
        named for a *different* task is rejected — adopting its space would
        decode that task's menus into this task's apply/cache path — and a
        policy with several banks needs a :class:`MultiTaskEnv`.
        """
        from repro.rl.policy import DEFAULT_HEAD

        if len(spaces) > 1:
            raise ValueError(
                f"a multi-task policy (head banks: {list(spaces)}) needs a "
                f"MultiTaskEnv, not {type(self).__name__}"
            )
        ((name, space),) = spaces.items()
        if name not in (self.task.name, DEFAULT_HEAD):
            raise ValueError(
                f"policy head bank {name!r} is named for another task; this "
                f"environment trains {self.task.name!r}"
            )
        self.action_space = space

    def next_batch(
        self, count: int
    ) -> List[Tuple[EnvSample, np.ndarray, str]]:
        """Serve the next ``count`` decision sites in rollout order.

        Each entry is ``(sample, observation, task_name)`` — everything the
        trainer needs to act on the whole chunk with one ``act_batch`` call.
        Consumption order (and therefore shuffling) is identical to ``count``
        sequential ``reset`` calls.
        """
        entries: List[Tuple[EnvSample, np.ndarray, str]] = []
        for _ in range(count):
            observation = self.reset()
            entries.append((self.current_sample(), observation, self.current_task_name))
        return entries

    def step(self, action) -> StepResult:
        sample = self.current_sample()
        decoded = self.action_space.decode(action)
        reward, info = self.evaluate_action(sample, decoded)
        self.total_steps += 1
        self._current = None
        return StepResult(reward=reward, info=info)

    # -- reward computation --------------------------------------------------------------

    def evaluate_action(
        self, sample: EnvSample, action: Tuple[int, ...]
    ) -> Tuple[float, Dict[str, float]]:
        """Reward for applying ``action`` to one sample's site (cached)."""
        action = self.task.cache_key(action)
        measurement, was_cached = self.reward_cache.measure_action(
            self.pipeline, self.task, sample.kernel, sample.loop_index, action
        )
        return self._reward_from_measurement(sample, action, measurement, was_cached)

    def _reward_from_measurement(
        self,
        sample: EnvSample,
        action: Tuple[int, ...],
        measurement: CachedMeasurement,
        was_cached: bool,
    ) -> Tuple[float, Dict[str, float]]:
        info: Dict[str, float] = dict(self.task.info_dict(action))
        info.update(
            {
                "cycles": measurement.cycles,
                "baseline_cycles": sample.baseline_cycles,
                "compile_seconds": measurement.compile_seconds,
            }
        )
        if was_cached:
            info["cached"] = 1.0
        if (
            sample.baseline_compile_seconds > 0
            and measurement.compile_seconds
            > self.compile_time_limit * sample.baseline_compile_seconds
        ):
            reward = self.compile_time_penalty
            info["compile_time_exceeded"] = 1.0
        else:
            reward = (sample.baseline_cycles - measurement.cycles) / max(
                sample.baseline_cycles, 1e-9
            )
        return reward, info

    # -- batched evaluation ----------------------------------------------------------

    def evaluate_actions_batch(
        self, requests: Sequence[Tuple[EnvSample, Tuple[int, ...]]]
    ) -> List[Tuple[float, Dict[str, float]]]:
        """Evaluate many explicit ``(sample, action)`` requests at once.

        Requests are deduplicated against each other and the reward cache, so
        repeated actions cost one pipeline evaluation total.  Results come
        back in request order.  With an attached evaluation service the
        unique misses are evaluated by its worker shards instead of
        in-process.
        """
        normalized = [
            (sample, self.task.cache_key(action)) for sample, action in requests
        ]
        outcomes = evaluate_requests(
            self.pipeline,
            self.reward_cache,
            [
                (sample.kernel, sample.loop_index, action)
                for sample, action in normalized
            ],
            service=self.evaluation_service,
            task=self.task,
        )
        return [
            self._reward_from_measurement(
                sample, action, outcome.measurement, outcome.was_cached
            )
            for (sample, action), outcome in zip(normalized, outcomes)
        ]

    def evaluate_batch(
        self, pairs: Sequence[Tuple[EnvSample, object]]
    ) -> List[StepResult]:
        """Batched :meth:`step`: decode raw actions, dedup, evaluate in one pass."""
        results = self.evaluate_actions_batch(self.decode_batch(pairs))
        self.total_steps += len(pairs)
        self._current = None
        return [StepResult(reward=reward, info=info) for reward, info in results]

    # -- async plumbing (shared with repro.distributed.async_api) ---------------------

    def decode_batch(
        self, pairs: Sequence[Tuple[EnvSample, object]]
    ) -> List[Tuple[EnvSample, Tuple[int, ...]]]:
        """Decode raw policy actions to the task's concrete action tuples."""
        return [
            (sample, self.action_space.decode(action)) for sample, action in pairs
        ]

    def submit_requests(
        self, service, requests: Sequence[Tuple[EnvSample, Tuple[int, ...]]]
    ):
        """Submit decoded requests to an evaluation service; returns its future."""
        return service.submit(
            [(sample.kernel, sample.loop_index, action) for sample, action in requests],
            task=self.task,
        )

    # -- evaluation helpers ---------------------------------------------------------------

    def greedy_rewards(self, policy) -> List[float]:
        """Reward of the policy's argmax action on every sample (no sampling)."""
        outputs = _policy_outputs_batch(
            policy, [sample.observation for sample in self.samples]
        )
        requests = [
            (sample, self.action_space.decode(output.action))
            for sample, output in zip(self.samples, outputs)
        ]
        return [reward for reward, _ in self.evaluate_actions_batch(requests)]


def _policy_outputs_batch(policy, observations, tasks=None):
    """Greedy actions for many observations from one ``act_batch`` call."""
    return policy.act_batch(np.stack(observations), deterministic=True, tasks=tasks)


# ---------------------------------------------------------------------------
# Multi-task joint training
# ---------------------------------------------------------------------------


@dataclass
class TaggedSample:
    """One task's sample inside a :class:`MultiTaskEnv` (the task id tag)."""

    task_name: str
    sample: EnvSample

    @property
    def observation(self) -> np.ndarray:
        return self.sample.observation

    @property
    def kernel(self) -> LoopKernel:
        return self.sample.kernel

    @property
    def loop_index(self) -> int:
        return self.sample.loop_index


class _GroupedFuture:
    """Reassembles per-task service futures back into request order."""

    def __init__(self, parts: Sequence[Tuple[object, Sequence[int]]], size: int):
        self._parts = list(parts)
        self._size = size

    def done(self) -> bool:
        return all(future.done() for future, _ in self._parts)

    def result(self):
        outcomes = [None] * self._size
        for future, slots in self._parts:
            for slot, outcome in zip(slots, future.result()):
                outcomes[slot] = outcome
        return outcomes


class MultiTaskEnv:
    """Joint contextual bandit interleaving several tasks' decision sites.

    One environment over the union of every task's samples: ``reset``
    serves the next site (round-robin across tasks on the first epoch,
    reshuffled jointly afterwards) and tags it with its task id
    (:attr:`current_task_name`), ``step`` decodes the raw action through
    *that task's* action space and routes the reward through that task's
    cache key — so the persistent store and the sharded evaluation service
    keep per-task entries exactly as single-task training would write them.

    Internally each task gets a lane — a :class:`VectorizationEnv` over its
    own samples sharing this env's pipeline, reward cache and evaluation
    service — so the single-task environment remains the one reward path;
    this class only owns the interleaving and the routing.  With exactly
    one task the env behaves identically (ordering, shuffling, rewards) to
    that task's ``VectorizationEnv``.
    """

    def __init__(
        self,
        tasks: Sequence,
        samples_by_task: Mapping[str, Sequence[EnvSample]],
        pipeline: Optional[CompileAndMeasure] = None,
        action_spaces: Optional[Mapping[str, ActionSpace]] = None,
        compile_time_limit: float = 10.0,
        compile_time_penalty: float = -9.0,
        shuffle: bool = True,
        seed: int = 0,
        reward_cache: Optional[RewardCache] = None,
        evaluation_service=None,
    ):
        self.tasks = resolve_tasks(tasks)
        if not self.tasks:
            raise ValueError("MultiTaskEnv needs at least one task")
        self.pipeline = pipeline or CompileAndMeasure()
        self.evaluation_service = evaluation_service
        self.reward_cache = resolve_cache(reward_cache, evaluation_service)
        self.lanes: "OrderedDict[str, VectorizationEnv]" = OrderedDict()
        per_task_samples: List[List[TaggedSample]] = []
        for task in self.tasks:
            samples = list(samples_by_task.get(task.name, ()))
            if not samples:
                raise ValueError(
                    f"task {task.name!r} has no environment samples; every "
                    "joint task needs at least one decision site"
                )
            self.lanes[task.name] = VectorizationEnv(
                samples,
                pipeline=self.pipeline,
                action_space=(action_spaces or {}).get(task.name),
                compile_time_limit=compile_time_limit,
                compile_time_penalty=compile_time_penalty,
                shuffle=False,  # ordering lives up here, jointly
                seed=seed,
                reward_cache=self.reward_cache,
                evaluation_service=evaluation_service,
                task=task,
            )
            per_task_samples.append(
                [TaggedSample(task.name, sample) for sample in samples]
            )
        # Round-robin interleave for the first epoch (task A site 0, task B
        # site 0, task A site 1, ...); subsequent epochs reshuffle jointly.
        # With one task this is exactly the single-task in-order first epoch.
        self.samples: List[TaggedSample] = []
        for position in range(max(len(lane) for lane in per_task_samples)):
            for lane_samples in per_task_samples:
                if position < len(lane_samples):
                    self.samples.append(lane_samples[position])
        dims = {
            int(entry.sample.observation.shape[0]) for entry in self.samples
        }
        if len(dims) != 1:
            raise ValueError(
                "joint tasks must share one embedding: observation dims "
                f"differ across tasks ({sorted(dims)})"
            )
        self.observation_dim = dims.pop()
        self.shuffle = shuffle
        self.rng = np.random.default_rng(seed)
        self._order = np.arange(len(self.samples))
        self._cursor = 0
        self._current: Optional[TaggedSample] = None
        self.total_steps = 0

    # -- structure -------------------------------------------------------------------

    @property
    def task_names(self) -> List[str]:
        return list(self.lanes)

    def lane_for(self, task_name: str) -> VectorizationEnv:
        lane = self.lanes.get(task_name)
        if lane is None:
            raise ValueError(
                f"no task {task_name!r} in this MultiTaskEnv; "
                f"joint tasks: {list(self.lanes)}"
            )
        return lane

    def set_action_spaces(self, spaces: Mapping[str, ActionSpace]) -> None:
        """Adopt a (multi-task) policy's per-task action spaces.

        Keys must cover this env's task names — a *superset* is fine (a
        jointly-trained policy fine-tuning one task hands its full
        per-task mapping to a one-lane env; lanes adopt their own entries
        and the rest are ignored).  A single *unnamed* space (a legacy
        one-head policy, keyed :data:`repro.rl.policy.DEFAULT_HEAD`) is
        accepted by a single-task env.  A single bank named for a
        *different* task is rejected — silently adopting its space would
        decode that task's menus into this task's apply/cache path.
        """
        from repro.rl.policy import DEFAULT_HEAD

        if set(self.lanes) <= set(spaces):
            for name in self.lanes:
                self.lanes[name].action_space = spaces[name]
            return
        if len(spaces) == 1 and len(self.lanes) == 1 and DEFAULT_HEAD in spaces:
            only = next(iter(self.lanes.values()))
            only.action_space = spaces[DEFAULT_HEAD]
            return
        raise ValueError(
            f"policy head banks {list(spaces)} do not match the "
            f"environment's tasks {list(self.lanes)}"
        )

    # -- episode control -------------------------------------------------------------

    def reset(self) -> np.ndarray:
        if self._cursor >= len(self._order):
            self._cursor = 0
            if self.shuffle:
                self.rng.shuffle(self._order)
        self._current = self.samples[self._order[self._cursor]]
        self._cursor += 1
        return self._current.sample.observation

    def peek_upcoming(self, count: int) -> List[TaggedSample]:
        """The next ``count`` tagged samples joint rollout order will serve.

        Same contract as :meth:`VectorizationEnv.peek_upcoming`: no RNG, no
        cursor movement; past the epoch boundary the stable sample order
        stands in as the speculation candidates.
        """
        count = max(0, int(count))
        if self._cursor >= len(self._order):
            return [self.samples[i] for i in range(min(count, len(self.samples)))]
        end = min(self._cursor + count, len(self._order))
        return [self.samples[i] for i in self._order[self._cursor:end]]

    def current_sample(self) -> TaggedSample:
        if self._current is None:
            raise RuntimeError("call reset() before step()")
        return self._current

    @property
    def current_task_name(self) -> str:
        """Task id tag of the observation served by the last ``reset``."""
        return self.current_sample().task_name

    def next_batch(
        self, count: int
    ) -> List[Tuple[TaggedSample, np.ndarray, str]]:
        """Serve the next ``count`` tagged sites in joint rollout order.

        Entries are ``(tagged_sample, observation, task_name)``; consumption
        order matches ``count`` sequential ``reset`` calls, so batched and
        serial rollouts see the identical site sequence.
        """
        entries: List[Tuple[TaggedSample, np.ndarray, str]] = []
        for _ in range(count):
            observation = self.reset()
            entries.append((self.current_sample(), observation, self.current_task_name))
        return entries

    def step(self, action) -> StepResult:
        tagged = self.current_sample()
        lane = self.lane_for(tagged.task_name)
        decoded = lane.action_space.decode(action)
        reward, info = lane.evaluate_action(tagged.sample, decoded)
        self.total_steps += 1
        self._current = None
        return StepResult(reward=reward, info=info)

    # -- reward routing --------------------------------------------------------------

    def _reward_from_measurement(self, tagged, action, measurement, was_cached):
        lane = self.lane_for(tagged.task_name)
        return lane._reward_from_measurement(
            tagged.sample, action, measurement, was_cached
        )

    def _grouped(self, requests: Sequence[Tuple[TaggedSample, Tuple[int, ...]]]):
        groups: "OrderedDict[str, List[int]]" = OrderedDict()
        for index, (tagged, _action) in enumerate(requests):
            groups.setdefault(tagged.task_name, []).append(index)
        return groups

    def evaluate_actions_batch(
        self, requests: Sequence[Tuple[TaggedSample, Tuple[int, ...]]]
    ) -> List[Tuple[float, Dict[str, float]]]:
        """Evaluate tagged ``(sample, action)`` requests, grouped per task.

        Each group goes through its own lane — its task's cache keys and
        reward rule — and results come back in request order, so joint
        rollouts are as deduplicated (and as deterministic) as single-task
        ones.
        """
        results: List[Optional[Tuple[float, Dict[str, float]]]] = [None] * len(
            requests
        )
        for task_name, indices in self._grouped(requests).items():
            lane = self.lane_for(task_name)
            lane_results = lane.evaluate_actions_batch(
                [(requests[i][0].sample, requests[i][1]) for i in indices]
            )
            for index, outcome in zip(indices, lane_results):
                results[index] = outcome
        return results  # type: ignore[return-value]

    def evaluate_batch(
        self, pairs: Sequence[Tuple[TaggedSample, object]]
    ) -> List[StepResult]:
        """Batched :meth:`step` over tagged samples (one pass per task)."""
        results = self.evaluate_actions_batch(self.decode_batch(pairs))
        self.total_steps += len(pairs)
        self._current = None
        return [StepResult(reward=reward, info=info) for reward, info in results]

    # -- async plumbing ---------------------------------------------------------------

    def decode_batch(
        self, pairs: Sequence[Tuple[TaggedSample, object]]
    ) -> List[Tuple[TaggedSample, Tuple[int, ...]]]:
        """Decode raw actions through each sample's own task space."""
        return [
            (tagged, self.lane_for(tagged.task_name).action_space.decode(action))
            for tagged, action in pairs
        ]

    def submit_requests(
        self, service, requests: Sequence[Tuple[TaggedSample, Tuple[int, ...]]]
    ):
        """Submit decoded requests per task; one reassembling future back."""
        parts = []
        for task_name, indices in self._grouped(requests).items():
            lane = self.lane_for(task_name)
            future = lane.submit_requests(
                service, [(requests[i][0].sample, requests[i][1]) for i in indices]
            )
            parts.append((future, indices))
        return _GroupedFuture(parts, len(requests))

    # -- evaluation helpers -----------------------------------------------------------

    def greedy_rewards(self, policy) -> List[float]:
        """Reward of the policy's argmax action on every sample of every task."""
        outputs = _policy_outputs_batch(
            policy,
            [tagged.sample.observation for tagged in self.samples],
            tasks=[tagged.task_name for tagged in self.samples],
        )
        requests = [
            (
                tagged,
                self.lane_for(tagged.task_name).action_space.decode(output.action),
            )
            for tagged, output in zip(self.samples, outputs)
        ]
        return [reward for reward, _ in self.evaluate_actions_batch(requests)]

    def greedy_rewards_by_task(self, policy) -> Dict[str, List[float]]:
        """Per-task greedy rewards (the joint policy evaluated task by task)."""
        rewards = self.greedy_rewards(policy)
        by_task: Dict[str, List[float]] = {name: [] for name in self.lanes}
        for tagged, reward in zip(self.samples, rewards):
            by_task[tagged.task_name].append(reward)
        return by_task
