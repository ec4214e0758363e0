"""Vectorization plans: requested factors clamped to what is legal."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.loopinfo import LoopAnalysis, analyze_loop
from repro.machine.description import MachineDescription
from repro.ir.nodes import IRFunction, Loop
from repro.vectorizer.legality import VectorizationLegality, check_legality


@dataclass
class LoopVectorPlan:
    """The factors one innermost loop will actually be compiled with.

    ``requested_*`` are what the pragma (or agent) asked for; ``vf`` and
    ``interleave`` are the effective values after legality clamping, exactly
    like clang ignoring an infeasible hint (§3 of the paper: "if the agent
    accidentally injected bad pragmas, the compiler will ignore it").
    """

    loop: Loop
    analysis: LoopAnalysis
    legality: VectorizationLegality
    requested_vf: int = 1
    requested_interleave: int = 1
    vf: int = 1
    interleave: int = 1

    @property
    def is_vectorized(self) -> bool:
        return self.vf > 1

    @property
    def is_interleaved(self) -> bool:
        return self.interleave > 1

    @property
    def elements_per_iteration(self) -> int:
        return self.vf * self.interleave

    def __str__(self) -> str:
        return (
            f"loop {self.loop.var}: requested (VF={self.requested_vf}, "
            f"IF={self.requested_interleave}) -> effective (VF={self.vf}, "
            f"IF={self.interleave})"
        )


@dataclass
class FunctionVectorPlan:
    """Vectorization plans for every innermost loop of one function."""

    function: IRFunction
    plans: Dict[int, LoopVectorPlan] = field(default_factory=dict)
    machine: MachineDescription = field(default_factory=MachineDescription)

    def plan_for(self, loop: Loop) -> Optional[LoopVectorPlan]:
        return self.plans.get(loop.loop_id)

    def factors(self) -> Dict[int, Tuple[int, int]]:
        """Effective (VF, IF) per loop id — handy for reports and tests."""
        return {loop_id: (p.vf, p.interleave) for loop_id, p in self.plans.items()}

    def __str__(self) -> str:
        lines = [f"plan for @{self.function.name}:"]
        lines.extend(f"  {plan}" for plan in self.plans.values())
        return "\n".join(lines)


def _clamp_power_of_two(value: int, maximum: int) -> int:
    result = 1
    while result * 2 <= min(value, maximum):
        result *= 2
    return result


def make_loop_plan(
    function: IRFunction,
    loop: Loop,
    requested_vf: int,
    requested_interleave: int,
    machine: Optional[MachineDescription] = None,
    analysis: Optional[LoopAnalysis] = None,
) -> LoopVectorPlan:
    """Build the plan for one innermost loop from requested factors."""
    machine = machine or MachineDescription()
    analysis = analysis or analyze_loop(function, loop)
    legality = check_legality(analysis, machine)
    requested_vf = max(1, requested_vf)
    requested_interleave = max(1, requested_interleave)
    effective_vf = legality.clamp_vf(
        _clamp_power_of_two(requested_vf, machine.max_vectorize_width)
    )
    effective_if = _clamp_power_of_two(requested_interleave, machine.max_interleave)
    return LoopVectorPlan(
        loop=loop,
        analysis=analysis,
        legality=legality,
        requested_vf=requested_vf,
        requested_interleave=requested_interleave,
        vf=effective_vf,
        interleave=effective_if,
    )


def build_plan(
    function: IRFunction,
    decisions: Dict[int, Tuple[int, int]],
    machine: Optional[MachineDescription] = None,
    analyses: Optional[Dict[int, LoopAnalysis]] = None,
) -> FunctionVectorPlan:
    """Build a function-level plan from explicit per-loop (VF, IF) decisions.

    ``decisions`` maps ``loop_id`` to requested factors.  Innermost loops
    without an entry default to (1, 1), i.e. scalar.  ``analyses`` maps
    ``loop_id`` to an analysis the caller already holds for that loop of
    ``function``; the plan keeps that object, and a loop without an entry
    is analysed here.
    """
    machine = machine or MachineDescription()
    analyses = analyses or {}
    plan = FunctionVectorPlan(function=function, machine=machine)
    for loop in function.innermost_loops():
        requested_vf, requested_if = decisions.get(loop.loop_id, (1, 1))
        plan.plans[loop.loop_id] = make_loop_plan(
            function, loop, requested_vf, requested_if, machine,
            analysis=analyses.get(loop.loop_id),
        )
    return plan
