"""Proximal Policy Optimization for the per-site contextual bandit.

Task-generic: actions flow through the policy's action space (built from
the task's menus) and rewards through the environment's task-aware cache
path, so the identical trainer optimizes vectorization factors, Polly
tile/fusion choices, or any other registered task.

Multi-task aware: every sample the :class:`repro.rl.env.MultiTaskEnv`
serves carries its task id, minibatches are grouped by task so each
update applies the right head bank's log-probs/entropy/value, and
:class:`IterationStats` reports per-task reward means alongside the joint
mean.  A single-task run is the one-group special case — minibatch
composition, RNG consumption and gradients are identical to the
pre-redesign trainer.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.optim import Adam
from repro.rl.env import EnvSample, MultiTaskEnv
from repro.rl.fused_update import FusedUpdater
from repro.rl.policy import Policy


@dataclass
class PPOConfig:
    """Hyperparameters (defaults follow §4: 64x64 FCNN, lr 5e-5, batch 4000)."""

    learning_rate: float = 5e-5
    train_batch_size: int = 4000
    minibatch_size: int = 128
    epochs_per_batch: int = 8
    clip_ratio: float = 0.3
    value_coefficient: float = 0.5
    entropy_coefficient: float = 0.01
    max_gradient_norm: float = 5.0
    reward_clip: Optional[float] = None
    #: Rollout chunk size when the env has a parallel evaluation service:
    #: chunk k's rewards simulate in worker processes while the policy acts
    #: on chunk k+1.  Ignored (single chunk) without background workers.
    async_chunk_size: int = 64
    #: Per-task advantage normalization: each task's advantages are
    #: standardized against that task's *running* mean/std instead of the
    #: joint batch statistics, so tasks with wildly different reward
    #: scales stop fighting over the shared trunk.  ``None`` (default)
    #: enables it exactly for joint batches (two or more task ids in the
    #: collected batch), keeping single-task training byte-identical to
    #: the global-normalization trainer; ``True``/``False`` force it.
    per_task_advantage_norm: Optional[bool] = None

    def __post_init__(self):
        counts = {
            "train_batch_size": self.train_batch_size,
            "minibatch_size": self.minibatch_size,
            "epochs_per_batch": self.epochs_per_batch,
        }
        for name, value in counts.items():
            if value <= 0:
                raise ValueError(f"PPOConfig.{name} must be positive, got {value!r}")
        if self.reward_clip is not None and self.reward_clip < 0:
            raise ValueError(
                f"PPOConfig.reward_clip must not be negative, got {self.reward_clip!r}"
            )

    def scaled(self, **overrides) -> "PPOConfig":
        """A copy of this config with some fields replaced."""
        values = dict(self.__dict__)
        values.update(overrides)
        return PPOConfig(**values)


@dataclass
class IterationStats:
    """Metrics for one training iteration (one collected batch)."""

    iteration: int
    steps_total: int
    reward_mean: float
    reward_min: float
    reward_max: float
    total_loss: float
    policy_loss: float
    value_loss: float
    entropy: float
    wall_time_seconds: float
    #: Joint training: mean reward per task id within this batch (a single
    #: entry — the task's own mean, equal to ``reward_mean`` — for
    #: single-task runs).
    per_task_reward_mean: Dict[str, float] = field(default_factory=dict)
    #: Joint training: steps each task contributed to this batch.
    per_task_steps: Dict[str, int] = field(default_factory=dict)


@dataclass
class TrainingHistory:
    """Reward/loss curves over training — the data behind Figures 5 and 6."""

    config: PPOConfig
    iterations: List[IterationStats] = field(default_factory=list)

    def reward_curve(self, task: Optional[str] = None) -> List[float]:
        """The joint reward-mean curve, or one task's curve (``task=name``)."""
        if task is None:
            return [it.reward_mean for it in self.iterations]
        return [
            it.per_task_reward_mean.get(task, float("nan"))
            for it in self.iterations
        ]

    def task_names(self) -> List[str]:
        """Task ids seen during training, in first-appearance order."""
        seen: "OrderedDict[str, None]" = OrderedDict()
        for stats in self.iterations:
            for name in stats.per_task_reward_mean:
                seen.setdefault(name, None)
        return list(seen)

    def per_task_final_rewards(self) -> Dict[str, float]:
        """Each task's reward mean in the last iteration it appeared in."""
        finals: Dict[str, float] = {}
        for stats in self.iterations:
            finals.update(stats.per_task_reward_mean)
        return finals

    def loss_curve(self) -> List[float]:
        return [it.total_loss for it in self.iterations]

    def steps(self) -> List[int]:
        return [it.steps_total for it in self.iterations]

    @property
    def final_reward_mean(self) -> float:
        return self.iterations[-1].reward_mean if self.iterations else float("nan")

    @property
    def best_reward_mean(self) -> float:
        return max((it.reward_mean for it in self.iterations), default=float("nan"))

    def converged_at(self, threshold: float = 0.0) -> Optional[int]:
        """First step count at which the mean reward exceeds ``threshold``."""
        for stats in self.iterations:
            if stats.reward_mean > threshold:
                return stats.steps_total
        return None


class _RunningMoments:
    """Streaming mean/variance (Welford batch merge) for one task's advantages."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        added = int(values.size)
        if added == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(values.var()) * added
        delta = batch_mean - self.mean
        total = self.count + added
        self.mean += delta * added / total
        self._m2 += batch_m2 + delta * delta * self.count * added / total
        self.count = total

    @property
    def std(self) -> float:
        return float(np.sqrt(self._m2 / self.count)) if self.count else 0.0


class PPOTrainer:
    """Single-process PPO trainer over a :class:`repro.rl.env.MultiTaskEnv`.

    Episodes are single-step (contextual bandit), so the advantage of an
    action is simply ``reward - value_estimate`` and there is no bootstrapping
    or discounting to do.

    The env hands out rollout chunks of :class:`repro.rl.env.EnvSample`
    with ``next_batch`` and adopts the policy's per-task action spaces
    with ``set_action_spaces``; the policy acts on a chunk with one
    ``act_batch`` call, each row routed by its sample's task name.  Every
    minibatch step is
    :meth:`repro.rl.fused_update.FusedUpdater.update_minibatch`, so the
    policy must be a :class:`repro.rl.policy.MultiTaskPolicy` or
    :class:`repro.rl.policy.ConditionedPolicy` with that class's own
    ``evaluate``; anything else is rejected here.

    ``trainable_parameters`` restricts the optimizer to a parameter subset
    (the frozen-trunk transfer path: a conditioned policy's
    ``transfer_parameters(task)``); every other parameter keeps its exact
    bytes — gradients may still flow through frozen layers, but no
    optimizer step ever touches them.
    """

    def __init__(
        self,
        env: MultiTaskEnv,
        policy: Policy,
        config: Optional[PPOConfig] = None,
        trainable_parameters=None,
        profiler=None,
    ):
        self.env = env
        self.policy = policy
        self.config = config or PPOConfig()
        #: Optional :class:`repro.profiling.PhaseTimer`; when attached,
        #: training records collect/gather/evaluate/backward/optimizer
        #: phase timings.  ``None`` (default) skips all timing calls.
        self.profiler = profiler
        if trainable_parameters is not None:
            parameters = list(trainable_parameters)
            if not parameters:
                raise ValueError(
                    "trainable_parameters must name at least one parameter"
                )
        else:
            parameters = policy.parameters()
        self.optimizer = Adam(parameters, self.config.learning_rate)
        self._updater = FusedUpdater(policy, self.optimizer, self.config)
        # The environment must decode actions with the policy's own spaces.
        env.set_action_spaces(policy.spaces)
        self.history = TrainingHistory(config=self.config)
        self.total_steps = 0
        # One running-moments accumulator per task id for per-task
        # advantage normalization (lazily created on first joint batch).
        self._advantage_moments: Dict[Optional[str], _RunningMoments] = {}

    # -- rollout collection --------------------------------------------------------

    def collect_batch(self, batch_size: int):
        from repro.distributed.async_api import AsyncEvaluator

        observations: List[np.ndarray] = []
        actions: List[np.ndarray] = []
        log_probs: List[float] = []
        rewards: List[float] = []
        values: List[float] = []
        task_names: List[str] = []
        # Deduplicated evaluation for the whole rollout: repeated (loop,
        # action) pairs — the common case once the policy sharpens — hit the
        # shared reward cache instead of recompiling.  With a parallel
        # evaluation service the rollout is chunked so chunk k's unique
        # misses simulate in worker processes while the policy network acts
        # on chunk k+1 (latency hiding); otherwise one chunk preserves the
        # single-pass serial behaviour exactly.
        # The policy hands a fleet-backed service its action distribution:
        # idle workers speculatively evaluate the top-k likely next actions
        # while this process is busy inferring, so later chunks hit instead
        # of waiting.
        evaluator = AsyncEvaluator(self.env, policy=self.policy)
        chunk_size = (
            max(1, self.config.async_chunk_size)
            if evaluator.overlapping
            else batch_size
        )
        futures = []
        collected = 0
        while collected < batch_size:
            # Gather the whole chunk's ready observations first, then act on
            # them with ONE batched forward (rows grouped by task id inside
            # act_batch).  Site order and RNG consumption match the serial
            # loop exactly, so rollouts are byte-identical either way.
            samples = self.env.next_batch(min(chunk_size, batch_size - collected))
            outputs = self._act_chunk(samples)
            pairs = []
            for sample, output in zip(samples, outputs):
                pairs.append((sample, output.action))
                observations.append(sample.observation)
                actions.append(np.asarray(output.action, dtype=np.float64))
                log_probs.append(output.log_prob)
                values.append(output.value)
                task_names.append(sample.task_name)
            futures.append(evaluator.submit(pairs))
            collected += len(pairs)
        for future in futures:
            for step in future.result():
                reward = step.reward
                if self.config.reward_clip is not None:
                    reward = float(
                        np.clip(reward, -self.config.reward_clip, self.config.reward_clip)
                    )
                rewards.append(reward)
        # Tasks may differ in action arity; pad each row to the widest so
        # one matrix holds the joint batch (each task's evaluate only reads
        # its own leading columns).  Single-task batches pad to their own
        # width — i.e. not at all.
        width = max(action.shape[0] for action in actions)
        action_matrix = np.zeros((len(actions), width), dtype=np.float64)
        for row, action in enumerate(actions):
            action_matrix[row, : action.shape[0]] = action
        return (
            np.stack(observations),
            action_matrix,
            np.asarray(log_probs),
            np.asarray(rewards),
            np.asarray(values),
            task_names,
        )

    def _act_chunk(self, samples: Sequence[EnvSample]):
        """Sample actions for a whole chunk with one batched forward."""
        return self.policy.act_batch(
            np.stack([sample.observation for sample in samples]),
            tasks=[sample.task_name for sample in samples],
        )

    # -- optimisation ---------------------------------------------------------------

    def update(
        self,
        observations,
        actions,
        old_log_probs,
        rewards,
        values,
        task_names: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        advantages = rewards - values
        per_task = self.config.per_task_advantage_norm
        if per_task is None:
            # Default on exactly for joint batches: a single-task batch
            # keeps the pre-conditioning global normalization bytes.
            per_task = task_names is not None and len(set(task_names)) > 1
        if per_task:
            advantages = self._normalize_advantages_per_task(advantages, task_names)
        elif advantages.std() > 1e-8:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        returns = rewards

        batch_size = observations.shape[0]
        indices = np.arange(batch_size)
        config = self.config
        last_metrics: Dict[str, float] = {}
        rng = np.random.default_rng(self.total_steps)
        profiler = self.profiler
        # Group membership never changes across epochs — only the shuffle
        # order does — so the name-to-code table is built once here and the
        # per-epoch work is a cheap order-preserving partition of the
        # freshly shuffled index array.
        plan = self._task_group_plan(task_names)

        for _ in range(config.epochs_per_batch):
            rng.shuffle(indices)
            # Minibatches form *within* task groups so every update step
            # applies exactly one head bank's log-probs/entropy/value.  A
            # single-task batch is one group spanning the whole shuffled
            # index array — slicing (and therefore training) identical to
            # the pre-multi-task trainer.
            for task, task_indices in self._shuffled_groups(indices, plan):
                # Gather each group's matrices ONCE per epoch; minibatches
                # below read contiguous slices instead of re-running fancy
                # indexing per step.  ``group_x[a:b]`` holds exactly the
                # rows ``x[task_indices[a:b]]`` the per-minibatch gather
                # produced, so training bytes are unchanged.
                if profiler is not None:
                    gather_started = time.perf_counter()
                group_observations = observations[task_indices]
                group_actions = actions[task_indices]
                group_old_log_probs = old_log_probs[task_indices]
                group_advantages = advantages[task_indices]
                group_returns = returns[task_indices]
                if profiler is not None:
                    profiler.add(
                        "gather", time.perf_counter() - gather_started
                    )
                for start in range(0, len(task_indices), config.minibatch_size):
                    stop = start + config.minibatch_size
                    last_metrics = self._updater.update_minibatch(
                        group_observations[start:stop],
                        group_actions[start:stop],
                        group_old_log_probs[start:stop],
                        group_advantages[start:stop],
                        group_returns[start:stop],
                        task=task,
                        timer=profiler,
                    )
        return last_metrics

    def _normalize_advantages_per_task(
        self, advantages: np.ndarray, task_names: Optional[Sequence[str]]
    ) -> np.ndarray:
        """Standardize each task's advantages by its running mean/std.

        The running statistics persist across batches (Welford merge), so
        a task whose rewards sit on a different scale is normalized
        against its own history rather than whatever mix this particular
        batch happened to contain.
        """
        names = (
            list(task_names)
            if task_names is not None
            else [None] * len(advantages)
        )
        normalized = np.asarray(advantages, dtype=np.float64).copy()
        for name in dict.fromkeys(names):  # stable first-seen order
            mask = np.asarray([entry == name for entry in names])
            moments = self._advantage_moments.setdefault(name, _RunningMoments())
            moments.update(normalized[mask])
            normalized[mask] = (normalized[mask] - moments.mean) / (
                moments.std + 1e-8
            )
        return normalized

    @staticmethod
    def _task_group_plan(task_names: Optional[Sequence[str]]):
        """The epoch-invariant part of task grouping: names + code array.

        Returns ``(names, codes)``: for single-group batches ``names`` is
        the lone task id (or ``None``) and ``codes`` is ``None``; for
        joint batches ``names`` lists distinct task ids and ``codes`` maps
        every batch row to its position in that list.
        """
        if task_names is None or len(set(task_names)) <= 1:
            return (task_names[0] if task_names else None), None
        names = list(dict.fromkeys(task_names))
        code_of = {name: code for code, name in enumerate(names)}
        codes = np.asarray([code_of[name] for name in task_names])
        return names, codes

    @staticmethod
    def _shuffled_groups(indices, plan):
        """Partition shuffled indices by task id, preserving shuffle order.

        Groups appear in first-appearance-within-the-shuffle order and
        each group's indices keep their shuffled order — the exact
        partition the historical per-epoch OrderedDict walk produced, as a
        few vectorized passes over the precomputed code array.
        """
        names, codes = plan
        if codes is None:
            return [(names, indices)]
        shuffled_codes = codes[indices]
        _, first_positions = np.unique(shuffled_codes, return_index=True)
        ordered = shuffled_codes[np.sort(first_positions)]
        return [
            (names[code], indices[shuffled_codes == code]) for code in ordered
        ]

    # -- training loop -----------------------------------------------------------------

    def train(self, total_steps: int, batch_size: Optional[int] = None) -> TrainingHistory:
        """Run training until ``total_steps`` environment steps were consumed."""
        batch_size = batch_size or min(self.config.train_batch_size, total_steps)
        iteration = len(self.history.iterations)
        profiler = self.profiler
        while self.total_steps < total_steps:
            start_time = time.perf_counter()
            current_batch = min(batch_size, total_steps - self.total_steps)
            with profiler.scope("collect") if profiler is not None else nullcontext():
                (
                    observations,
                    actions,
                    log_probs,
                    rewards,
                    values,
                    task_names,
                ) = self.collect_batch(current_batch)
            with profiler.scope("update") if profiler is not None else nullcontext():
                metrics = self.update(
                    observations, actions, log_probs, rewards, values, task_names
                )
            self.total_steps += current_batch
            iteration += 1
            per_task_rewards: Dict[str, float] = {}
            per_task_steps: Dict[str, int] = {}
            name_array = np.asarray(task_names)
            for name in dict.fromkeys(task_names):  # stable first-seen order
                mask = name_array == name
                per_task_rewards[name] = float(rewards[mask].mean())
                per_task_steps[name] = int(mask.sum())
            self.history.iterations.append(
                IterationStats(
                    iteration=iteration,
                    steps_total=self.total_steps,
                    reward_mean=float(rewards.mean()),
                    reward_min=float(rewards.min()),
                    reward_max=float(rewards.max()),
                    total_loss=metrics.get("total_loss", float("nan")),
                    policy_loss=metrics.get("policy_loss", float("nan")),
                    value_loss=metrics.get("value_loss", float("nan")),
                    entropy=metrics.get("entropy", float("nan")),
                    wall_time_seconds=time.perf_counter() - start_time,
                    per_task_reward_mean=per_task_rewards,
                    per_task_steps=per_task_steps,
                )
            )
        return self.history
