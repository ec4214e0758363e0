"""Future-based reward evaluation for rollout/inference overlap.

PPO rollout collection alternates two unrelated costs: the policy network
computing actions (pure NumPy in the training process) and the simulator
computing rewards (CPU-heavy, shardable).  :class:`AsyncEvaluator` lets the
trainer submit one chunk's reward queries and immediately start acting on
the next chunk while worker processes simulate the first — with a parallel
:class:`EvaluationService` the two genuinely overlap; a serial service
answers each submission before it returns, with identical results.

Raw policy actions are decoded once by the :class:`repro.rl.env.MultiTaskEnv`
(through each sample's own task space), and the decoded task-action tuples
travel through the env's service, grouped per task — the one path every
site reward takes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.rl.env import EnvSample, MultiTaskEnv, StepResult


class RewardFuture:
    """Pending rewards for one submitted chunk of ``(sample, action)`` pairs.

    ``result()`` returns :class:`StepResult` objects in submission order,
    applying the owning environment's reward rule (compile-time penalty
    included) to the raw measurements as they arrive.
    """

    def __init__(
        self,
        env: MultiTaskEnv,
        requests: Sequence[Tuple[EnvSample, Tuple[int, ...]]],
        service_future,
    ):
        self._env = env
        self._requests = list(requests)
        self._service_future = service_future

    def __len__(self) -> int:
        return len(self._requests)

    def done(self) -> bool:
        return self._service_future.done()

    def result(self) -> List[StepResult]:
        return [
            StepResult(reward=reward, info=info)
            for reward, info in self._env.rewards(
                self._requests, self._service_future.result()
            )
        ]


class AsyncEvaluator:
    """Submit reward queries for an environment without blocking on them.

    Wraps a :class:`MultiTaskEnv` and submits through its
    :class:`EvaluationService`, which overlaps when it has parallel workers.
    Bookkeeping (``total_steps``, episode state) mirrors
    ``MultiTaskEnv.evaluate_batch`` so the two paths are interchangeable.
    """

    def __init__(self, env: MultiTaskEnv, policy=None):
        self.env = env
        self.service = env.evaluation_service
        # With a service that speculates (prefetch_top_k > 0) and a policy
        # to rank actions with, warm the cache with the policy's likely
        # next actions after every submission — the workers evaluate them
        # while the trainer is busy inferring/updating.
        self.prefetcher = None
        if policy is not None and self.service.prefetch_top_k > 0:
            from repro.fleet.prefetch import SpeculativePrefetcher

            self.prefetcher = SpeculativePrefetcher(env, policy, self.service)

    @property
    def overlapping(self) -> bool:
        """Whether submissions are actually evaluated in the background."""
        return self.service.workers > 0

    def submit(self, pairs: Sequence[Tuple[EnvSample, object]]) -> RewardFuture:
        """Queue ``(sample, raw_action)`` pairs for evaluation.

        Decoding and service submission are delegated to the environment
        (``decode_batch``/``submit_requests``), which routes each request
        through its sample's own task.
        """
        requests = self.env.decode_batch(pairs)
        self.env.total_steps += len(pairs)
        self.env._current = None
        future = RewardFuture(self.env, requests, self.env.submit_requests(requests))
        if self.prefetcher is not None:
            self.prefetcher.prefetch()
        return future
