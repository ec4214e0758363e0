"""Brute-force (VF, IF) search — the oracle the paper compares against.

The paper runs every factor pair through clang and times the binary; here
every pair goes through the cycle simulator.  The full grid is retained so
Figure 1 (the 35-point dot-product heat strip) and the supervised-learning
labels can be regenerated from one search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.loopinfo import analyze_loop
from repro.ir.nodes import IRFunction, Loop
from repro.machine.description import MachineDescription
from repro.simulator.engine import Simulator
from repro.vectorizer.cost_model import BaselineCostModel
from repro.vectorizer.planner import FunctionVectorPlan, build_plan


@dataclass
class BruteForceResult:
    """Outcome of an exhaustive factor search for one function."""

    function: IRFunction
    #: loop_id -> best (VF, IF)
    best_factors: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: loop_id -> {(VF, IF) -> total function cycles with that choice}
    grids: Dict[int, Dict[Tuple[int, int], float]] = field(default_factory=dict)
    best_cycles: float = float("inf")
    baseline_cycles: float = float("nan")
    evaluations: int = 0

    def best_plan(self, machine: Optional[MachineDescription] = None) -> FunctionVectorPlan:
        return build_plan(self.function, self.best_factors, machine)

    def speedup_over_baseline(self) -> float:
        return self.baseline_cycles / self.best_cycles if self.best_cycles else float("inf")

    def grid_speedups(self, loop: Loop) -> Dict[Tuple[int, int], float]:
        """Speed-up over the baseline for every (VF, IF) of one loop."""
        grid = self.grids.get(loop.loop_id, {})
        return {
            factors: self.baseline_cycles / cycles if cycles else float("inf")
            for factors, cycles in grid.items()
        }


def brute_force_search(
    function: IRFunction,
    machine: Optional[MachineDescription] = None,
    simulator: Optional[Simulator] = None,
    bindings: Optional[Dict[str, float]] = None,
    vf_candidates: Optional[Iterable[int]] = None,
    if_candidates: Optional[Iterable[int]] = None,
) -> BruteForceResult:
    """Exhaustively search the factors of every innermost loop.

    Loops are searched one at a time with the other loops pinned at the
    baseline's choice; because the simulator's per-loop costs are additive
    this finds the jointly optimal assignment while evaluating
    ``loops x |VF| x |IF|`` plans instead of the full cross product.
    Every plan of the search shares one analysis per loop.
    """
    machine = machine or MachineDescription()
    simulator = simulator or Simulator(machine=machine, bindings=bindings)
    vfs = tuple(vf_candidates) if vf_candidates is not None else machine.vf_candidates()
    ifs = tuple(if_candidates) if if_candidates is not None else machine.if_candidates()

    baseline = BaselineCostModel(machine=machine)
    baseline_decisions = baseline.decide_function(function)
    analyses = {
        loop.loop_id: analyze_loop(function, loop)
        for loop in function.innermost_loops()
    }
    baseline_plan = build_plan(function, baseline_decisions, machine, analyses=analyses)
    baseline_cycles = simulator.simulate(function, baseline_plan).total_cycles

    result = BruteForceResult(function=function, baseline_cycles=baseline_cycles)
    best_decisions: Dict[int, Tuple[int, int]] = dict(baseline_decisions)

    for loop in function.innermost_loops():
        grid: Dict[Tuple[int, int], float] = {}
        best_pair = baseline_decisions.get(loop.loop_id, (1, 1))
        best_cycles = float("inf")
        for vf in vfs:
            for interleave in ifs:
                trial = dict(best_decisions)
                trial[loop.loop_id] = (vf, interleave)
                plan = build_plan(function, trial, machine, analyses=analyses)
                cycles = simulator.simulate(function, plan).total_cycles
                grid[(vf, interleave)] = cycles
                result.evaluations += 1
                if cycles < best_cycles:
                    best_cycles = cycles
                    best_pair = (vf, interleave)
        best_decisions[loop.loop_id] = best_pair
        result.best_factors[loop.loop_id] = best_pair
        result.grids[loop.loop_id] = grid

    final_plan = build_plan(function, best_decisions, machine, analyses=analyses)
    result.best_cycles = simulator.simulate(function, final_plan).total_cycles
    return result
