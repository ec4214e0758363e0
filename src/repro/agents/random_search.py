"""Uniform random action selection (the paper's random-search comparator)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.agents.base import AgentDecision, VectorizationAgent
from repro.cache.reward_cache import kernel_fingerprint
from repro.datasets.kernels import LoopKernel
from repro.distributed.service import EvaluationService
from repro.tasks import OptimizationTask, resolve_task


class RandomSearchAgent(VectorizationAgent):
    """Picks each action component uniformly at random from its legal menu.

    The paper uses this to show that the RL agent's gains come from learned
    structure and not from the action space itself: "Random search performed
    much worse than the baseline" (§4).

    With ``candidates > 1`` the agent becomes best-of-N random search: it
    draws N candidate actions and keeps the fastest, measuring them as one
    batch on ``evaluation_service`` (required then) so repeated draws cost
    a lookup instead of a compile.

    **Determinism.** Queries that carry a kernel derive their random stream
    from ``(seed, kernel content hash, site_index)``, so the decision for a
    given site depends only on the agent's seed — never on how many other
    sites were queried first.  Cache hits, shared caches, or a service
    reordering evaluation therefore cannot change the outcome of a seeded
    run.  Embedding-only queries (no kernel) keep a per-agent stream.
    """

    name = "random"
    uses_observation = False

    def __init__(
        self,
        seed: int = 0,
        candidates: int = 1,
        *,
        evaluation_service: Optional[EvaluationService] = None,
        task: Optional[OptimizationTask] = None,
    ):
        if candidates < 1:
            raise ValueError("candidates must be at least 1")
        if candidates > 1 and not evaluation_service:
            raise ValueError(
                "best-of-N random search (candidates > 1) measures its draws; "
                "pass the evaluation_service to measure them with"
            )
        self.task = resolve_task(task)
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self.candidates = candidates
        self.evaluation_service = evaluation_service

    def _rng_for(self, kernel: Optional[LoopKernel], loop_index: int):
        """The random stream for one query — content-derived when possible."""
        if kernel is None:
            return self.rng
        digest = kernel_fingerprint(kernel)
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, int(digest[:16], 16), int(loop_index)])
        )

    def _draw(self, rng) -> Tuple[int, ...]:
        return tuple(int(rng.choice(menu)) for menu in self.task.menus)

    def select_factors(
        self,
        observation: np.ndarray,
        kernel: Optional[LoopKernel] = None,
        loop_index: int = 0,
    ) -> AgentDecision:
        rng = self._rng_for(kernel, loop_index)
        draws = [self._draw(rng)]
        if self.candidates == 1 or kernel is None:
            return AgentDecision(action=draws[0])
        for _ in range(self.candidates - 1):
            draws.append(self._draw(rng))
        outcomes = self.evaluation_service.evaluate(
            [(kernel, loop_index, candidate) for candidate in draws], task=self.task
        )
        best_action = draws[0]
        best_cycles = float("inf")
        for action, outcome in zip(draws, outcomes):
            if outcome.measurement.cycles < best_cycles:
                best_cycles = outcome.measurement.cycles
                best_action = action
        return AgentDecision(action=best_action)
