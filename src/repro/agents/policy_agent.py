"""Adapter exposing a trained RL policy through the agent interface."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.base import AgentDecision, VectorizationAgent
from repro.datasets.kernels import LoopKernel
from repro.rl.policy import Policy
from repro.tasks import resolve_task


class PolicyAgent(VectorizationAgent):
    """Greedy (argmax) inference with a trained policy network.

    "Once the model is trained it can be plugged in as is for inference
    without further retraining" (§3) — this class is that plug.

    ``task`` selects which head of a jointly-trained policy this agent
    decides with (and which space decodes its actions) — a head *bank* of
    a :class:`repro.rl.policy.MultiTaskPolicy` or the task embedding of a
    :class:`repro.rl.policy.ConditionedPolicy`; one joint policy yields
    one task-pinned agent per task via :meth:`for_task`.  Single-task
    policies need no task: the agent routes to the only head.
    """

    name = "rl"

    def __init__(self, policy: Policy, deterministic: bool = True, task=None):
        self.policy = policy
        self.deterministic = deterministic
        self.task = resolve_task(task) if task is not None else None
        # Fail at construction, not mid-comparison: a requested task the
        # policy was never trained for, or a multi-bank policy with no
        # task to route by, would otherwise only blow up on the first
        # select_factors call.
        if self.task is not None:
            policy.heads_for(self.task.name)
        elif len(policy.task_names) > 1:
            raise ValueError(
                "a jointly-trained policy needs task=<name> (or "
                f"for_task()) to decide with; trained heads: "
                f"{policy.task_names}"
            )

    def for_task(self, task) -> "PolicyAgent":
        """This policy pinned to one of its tasks (joint-training helper)."""
        if self.task is not None and self.task.name == resolve_task(task).name:
            return self
        return PolicyAgent(self.policy, deterministic=self.deterministic, task=task)

    def select_factors(
        self,
        observation: np.ndarray,
        kernel: Optional[LoopKernel] = None,
        loop_index: int = 0,
    ) -> AgentDecision:
        task_name = self.task.name if self.task is not None else None
        output = self.policy.act(
            np.asarray(observation, dtype=np.float64),
            deterministic=self.deterministic,
            task=task_name,
        )
        space = self.policy.space_for(task_name)
        return AgentDecision(action=space.decode(output.action))
