"""The brute-force oracle exposed through the agent interface."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.agents.base import AgentDecision, VectorizationAgent
from repro.cache.reward_cache import CachedMeasurement
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed.service import EvaluationService
from repro.tasks import OptimizationTask, resolve_task


class BruteForceAgent(VectorizationAgent):
    """Exhaustively tries every task action for the requested site.

    This is the upper bound the paper reports RL to be "only 3% worse than";
    it needs the kernel itself (not just the embedding) and one compilation
    per menu combination (35 for the (VF, IF) default), which is exactly why
    the paper trains a policy instead of shipping this.

    Every grid (:meth:`grid`) is one batch on ``evaluation_service`` (pass
    the run's shared one, so repeat queries — and actions the RL env
    already evaluated — cost a lookup instead of a compile, and a pooled
    service evaluates the unique misses on its workers); without one the
    agent measures through a private serial service.  Figures 1 and 2 read
    the same grid.
    """

    name = "brute_force"
    uses_observation = False

    def __init__(
        self,
        *,
        evaluation_service: Optional[EvaluationService] = None,
        task: Optional[OptimizationTask] = None,
    ):
        self.evaluation_service = evaluation_service or EvaluationService(CompileAndMeasure())
        self.task = resolve_task(task)

    def grid(
        self, kernel: LoopKernel, loop_index: int = 0
    ) -> Dict[Tuple[int, ...], CachedMeasurement]:
        """Every menu action's measurement at one site, in ``all_actions()`` order."""
        actions = self.task.action_space("discrete").all_actions()
        outcomes = self.evaluation_service.evaluate(
            [(kernel, loop_index, action) for action in actions], task=self.task
        )
        return {
            action: outcome.measurement for action, outcome in zip(actions, outcomes)
        }

    def select_factors(
        self,
        observation: np.ndarray,
        kernel: Optional[LoopKernel] = None,
        loop_index: int = 0,
    ) -> AgentDecision:
        if kernel is None:
            raise ValueError("BruteForceAgent needs the kernel to search")
        best_action: Tuple[int, ...] = self.task.default_action()
        best_cycles = float("inf")
        for action, measurement in self.grid(kernel, loop_index).items():
            if measurement.cycles < best_cycles:
                best_cycles = measurement.cycles
                best_action = action
        return AgentDecision(action=best_action)
