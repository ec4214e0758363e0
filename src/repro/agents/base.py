"""The agent interface shared by RL, supervised and search-based methods."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.datasets.kernels import LoopKernel
from repro.tasks import resolve_task


class AgentDecision:
    """An agent's chosen action for one decision site.

    ``action`` is the task-defined tuple: ``(vf, interleave)`` for the
    default vectorization task, ``(tile, fuse)`` for Polly tiling, ...
    """

    __slots__ = ("action",)

    def __init__(self, action: Tuple[int, ...]):
        self.action: Tuple[int, ...] = tuple(int(value) for value in action)

    def as_tuple(self) -> Tuple[int, ...]:
        return self.action

    def __eq__(self, other) -> bool:
        if isinstance(other, AgentDecision):
            return self.action == other.action
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.action)

    def __repr__(self) -> str:
        return f"AgentDecision(action={self.action!r})"


class VectorizationAgent:
    """Base class: map a site observation to a task-action decision.

    ``observation`` is the code2vec embedding of the decision site (for the
    default task, the loop nest).  Agents that do not use the embedding
    (baseline, brute force) may instead use the ``kernel``/``loop_index``
    context passed alongside it and set :attr:`uses_observation` to False,
    letting embedding-free harnesses (e.g. a ``ComparisonRunner`` without
    an embedding model) know a placeholder observation is acceptable.  The
    name predates the task redesign — any registered
    :class:`repro.tasks.OptimizationTask` plugs in.
    """

    name: str = "agent"
    #: Whether select_factors reads the observation vector (embedding).
    uses_observation: bool = True
    #: The task this agent decides for; ``None`` for agents that decide from
    #: the observation alone (NNS, decision tree, a single-task policy).
    task = None

    def for_task(self, task) -> "VectorizationAgent":
        """This agent deciding for ``task`` (a registered name or instance).

        An unpinned agent, or one already pinned to ``task``, serves as is;
        an agent built for another task cannot change what it decides.
        """
        task = resolve_task(task)
        if self.task is None or self.task.name == task.name:
            return self
        raise ValueError(
            f"agent decides for task {self.task.name!r}, not "
            f"{task.name!r}, and cannot be re-pinned"
        )

    def select_factors(
        self,
        observation: np.ndarray,
        kernel: Optional[LoopKernel] = None,
        loop_index: int = 0,
    ) -> AgentDecision:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
