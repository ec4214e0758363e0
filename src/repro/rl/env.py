"""The optimization environment: a contextual bandit over site embeddings.

Generic over :class:`repro.tasks.OptimizationTask`: a task defines the
decision sites of each kernel, the action menus, and how a chosen action
is measured.  The default task reproduces the paper's per-loop (VF, IF)
vectorization decision.

:class:`MultiTaskEnv` is the one environment, for one task or several.
Every :class:`EnvSample` carries the name of its task, so a step decodes
the raw action through that task's action space and routes the reward
through that task's cache key — the one evaluation service the env holds
(and the reward cache inside it) serves all tasks without collisions,
and a task-conditioned policy reads the routing tag off the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cache.reward_cache import BatchOutcome, CachedMeasurement
from repro.core.loop_extractor import ExtractedLoop
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed.service import EvaluationService
from repro.embedding.code2vec import Code2VecModel
from repro.rl.spaces import ActionSpace
from repro.tasks import DecisionSite, OptimizationTask, resolve_task, resolve_tasks

#: Reward for an action whose compile time overruns the limit (§3.4).
COMPILE_TIME_PENALTY = -9.0


@dataclass
class EnvSample:
    """One training sample: a specific decision site of a specific kernel."""

    kernel: LoopKernel
    loop_index: int
    observation: np.ndarray
    baseline_cycles: float
    baseline_compile_seconds: float
    task_name: str
    extracted: Optional[ExtractedLoop] = None
    site: Optional[DecisionSite] = None


def build_samples(
    kernels: Sequence[LoopKernel],
    embedding_model: Code2VecModel,
    pipeline: Optional[CompileAndMeasure] = None,
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
            observation = task.observation_features(site, embedding_model)
            extracted = site.payload if isinstance(site.payload, ExtractedLoop) else None
            samples.append(
                EnvSample(
                    kernel=kernel,
                    loop_index=site.index,
                    observation=observation,
                    baseline_cycles=baseline.cycles,
                    baseline_compile_seconds=baseline.compile_seconds,
                    task_name=task.name,
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
    """Contextual bandit over the decision sites of one or more tasks.

    ``reset`` serves the next site — round-robin across tasks on the first
    epoch, reshuffled jointly afterwards — and returns its embedding.
    ``step`` takes the agent's raw action, decodes it through the site's
    task's action space to that task's concrete action tuple, measures the
    kernel with the action applied to the site (other sites stay at the
    compiler default), and returns the reward

        reward = (t_baseline - t_agent) / t_baseline                  (Eq. 2)

    with the §3.4 rule: if the estimated compile time exceeds
    ``compile_time_limit`` times the baseline's compile time the reward is
    :data:`COMPILE_TIME_PENALTY` instead.

    ``tasks`` holds the ``task name -> task`` map and ``action_spaces``
    the ``task name -> ActionSpace`` map (each task's discrete space until
    a trainer hands over its policy's spaces).  With one task this is the
    paper's single-task bandit.

    Every reward is measured by ``evaluation_service`` — the run's shared
    one, or a private serial ``EvaluationService(CompileAndMeasure())``.
    """

    def __init__(
        self,
        tasks: Sequence,
        samples_by_task: Mapping[str, Sequence[EnvSample]],
        *,
        compile_time_limit: float = 10.0,
        shuffle: bool = True,
        seed: int = 0,
        evaluation_service: Optional[EvaluationService] = None,
    ):
        resolved = resolve_tasks(tasks)
        if not resolved:
            raise ValueError("MultiTaskEnv needs at least one task")
        self.tasks: Dict[str, OptimizationTask] = {task.name: task for task in resolved}
        self.action_spaces: Dict[str, ActionSpace] = {
            name: task.action_space("discrete") for name, task in self.tasks.items()
        }
        self.compile_time_limit = compile_time_limit
        # Shared with other envs/agents when passed in; rewards are derived
        # from cached raw measurements so each env applies its own limit.
        self.evaluation_service = evaluation_service or EvaluationService(CompileAndMeasure())
        per_task: List[List[EnvSample]] = []
        for name in self.tasks:
            samples = list(samples_by_task.get(name, ()))
            if not samples:
                raise ValueError(
                    f"task {name!r} has no environment samples; every "
                    "task needs at least one decision site"
                )
            for sample in samples:
                if sample.task_name != name:
                    raise ValueError(
                        f"a {sample.task_name!r} sample is filed under task {name!r}"
                    )
            per_task.append(samples)
        # Round-robin interleave for the first epoch (task A site 0, task B
        # site 0, task A site 1, ...); subsequent epochs reshuffle jointly.
        # With one task this is the task's own in-order first epoch.
        self.samples: List[EnvSample] = []
        for position in range(max(len(samples) for samples in per_task)):
            for samples in per_task:
                if position < len(samples):
                    self.samples.append(samples[position])
        dims = {int(sample.observation.shape[0]) for sample in self.samples}
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
        self._current: Optional[EnvSample] = None
        self.total_steps = 0

    def set_action_spaces(self, spaces: Mapping[str, ActionSpace]) -> None:
        """Adopt a policy's ``task name -> ActionSpace`` mapping.

        Keys must cover this env's tasks — a *superset* is fine (a policy
        trained on more tasks trains only this env's tasks' banks; the
        other entries are ignored).  A bank named for a *different* task
        cannot stand in for a missing one: adopting it would decode that
        task's menus into this task's apply/cache path.
        """
        missing = [name for name in self.tasks if name not in spaces]
        if missing:
            raise ValueError(
                f"policy head banks {list(spaces)} do not cover the "
                f"environment's tasks {list(self.tasks)} (missing {missing})"
            )
        for name in self.tasks:
            self.action_spaces[name] = spaces[name]

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
            return self.samples[:count]
        end = min(self._cursor + count, len(self._order))
        return [self.samples[i] for i in self._order[self._cursor:end]]

    def current_sample(self) -> EnvSample:
        if self._current is None:
            raise RuntimeError("call reset() before step()")
        return self._current

    def next_batch(self, count: int) -> List[EnvSample]:
        """Serve the next ``count`` samples in rollout order.

        Each sample carries its observation and task name — everything the
        trainer needs to act on the whole chunk with one ``act_batch``
        call.  Consumption order (and therefore shuffling) is identical to
        ``count`` sequential ``reset`` calls.
        """
        batch: List[EnvSample] = []
        for _ in range(count):
            self.reset()
            batch.append(self._current)
        return batch

    def step(self, action) -> StepResult:
        sample = self.current_sample()
        decoded = self.action_spaces[sample.task_name].decode(action)
        reward, info = self.evaluate_action(sample, decoded)
        self.total_steps += 1
        self._current = None
        return StepResult(reward=reward, info=info)

    # -- reward computation --------------------------------------------------------------

    def evaluate_action(
        self, sample: EnvSample, action: Tuple[int, ...]
    ) -> Tuple[float, Dict[str, float]]:
        """Reward for applying ``action`` to one sample's site (cached)."""
        return self.evaluate_actions_batch([(sample, action)])[0]

    def rewards(
        self,
        requests: Sequence[Tuple[EnvSample, Tuple[int, ...]]],
        outcomes: Sequence[BatchOutcome],
    ) -> List[Tuple[float, Dict[str, float]]]:
        """Apply this env's reward rule to the measured ``outcomes`` of
        ``requests``, in request order."""
        return [
            self._reward_from_measurement(
                sample, action, outcome.measurement, outcome.was_cached
            )
            for (sample, action), outcome in zip(requests, outcomes)
        ]

    def _reward_from_measurement(
        self,
        sample: EnvSample,
        action: Tuple[int, ...],
        measurement: CachedMeasurement,
        was_cached: bool,
    ) -> Tuple[float, Dict[str, float]]:
        info: Dict[str, float] = dict(self.tasks[sample.task_name].info_dict(action))
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
            reward = COMPILE_TIME_PENALTY
            info["compile_time_exceeded"] = 1.0
        else:
            reward = (sample.baseline_cycles - measurement.cycles) / max(
                sample.baseline_cycles, 1e-9
            )
        return reward, info

    # -- batched evaluation ----------------------------------------------------------

    @staticmethod
    def _grouped(requests: Sequence[Tuple[EnvSample, object]]) -> Dict[str, List[int]]:
        """Request positions per task name, in first-seen order."""
        groups: Dict[str, List[int]] = {}
        for index, (sample, _action) in enumerate(requests):
            groups.setdefault(sample.task_name, []).append(index)
        return groups

    def evaluate_actions_batch(
        self, requests: Sequence[Tuple[EnvSample, Tuple[int, ...]]]
    ) -> List[Tuple[float, Dict[str, float]]]:
        """Evaluate many explicit ``(sample, action)`` requests at once.

        The synchronous form of :meth:`submit_requests`: requests are
        grouped per task (its cache keys and reward rule) and deduplicated
        against each other and the reward cache, so repeated actions cost
        one pipeline evaluation total.  Results come back in request order.
        """
        return self.rewards(requests, self.submit_requests(requests).result())

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
        """Decode raw policy actions through each sample's own task space."""
        return [
            (sample, self.action_spaces[sample.task_name].decode(action))
            for sample, action in pairs
        ]

    def submit_requests(
        self, requests: Sequence[Tuple[EnvSample, Tuple[int, ...]]]
    ) -> _GroupedFuture:
        """Submit decoded requests to the evaluation service, one batch per
        task; one reassembling future back."""
        parts = []
        for name, indices in self._grouped(requests).items():
            future = self.evaluation_service.submit(
                [
                    (requests[i][0].kernel, requests[i][0].loop_index, requests[i][1])
                    for i in indices
                ],
                task=self.tasks[name],
            )
            parts.append((future, indices))
        return _GroupedFuture(parts, len(requests))

    # -- evaluation helpers ---------------------------------------------------------------

    def greedy_rewards(self, policy) -> List[float]:
        """Reward of the policy's argmax action on every sample (no sampling)."""
        outputs = policy.act_batch(
            np.stack([sample.observation for sample in self.samples]),
            deterministic=True,
            tasks=[sample.task_name for sample in self.samples],
        )
        requests = [
            (sample, self.action_spaces[sample.task_name].decode(output.action))
            for sample, output in zip(self.samples, outputs)
        ]
        return [reward for reward, _ in self.evaluate_actions_batch(requests)]
