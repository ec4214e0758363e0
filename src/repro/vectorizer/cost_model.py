"""The baseline cost model (what LLVM's vectorizer does without hints).

This is the comparator the paper's reward is normalised against.  Like the
real pass it:

* computes the maximum profitable width from the widest element type and a
  conservative preferred vector width (most Intel targets default to 128-bit
  preference to avoid frequency licence throttling),
* scores each candidate VF with a *linear per-instruction* cost table and
  picks the cheapest cost-per-lane,
* chooses a small interleave count from a register-pressure/latency rule of
  thumb.

Crucially it never consults the cycle simulator: it does not see latency
hiding, cache behaviour or the shape of the dependence graph — which is
exactly the gap the learned policies exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.loopinfo import LoopAnalysis, analyze_loop
from repro.ir.nodes import IRFunction, Loop
from repro.machine.description import MachineDescription
from repro.vectorizer.legality import VectorizationLegality, check_legality


@dataclass
class BaselineDecision:
    """The baseline's chosen factors for one loop, with its internal scores."""

    loop: Loop
    vf: int
    interleave: int
    legality: VectorizationLegality
    cost_per_lane: Dict[int, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"baseline picks VF={self.vf}, IF={self.interleave} for loop {self.loop.var}"


@dataclass
class BaselineCostModel:
    """LLVM-like linear cost model for picking VF and IF."""

    machine: MachineDescription = field(default_factory=MachineDescription)
    #: Preferred vector width in bits (LLVM's -mprefer-vector-width analogue).
    preferred_vector_bits: int = 128
    #: The baseline never interleaves beyond this (LLVM's default cap).
    max_interleave: int = 4

    # -- per-instruction costs (relative units, not cycles) ------------------------

    def _instruction_cost(self, analysis: LoopAnalysis, vf: int) -> float:
        """Summed cost of one iteration of the loop body at width ``vf``.

        The table intentionally mirrors LLVM's TTI-style flat costs: most
        vector arithmetic costs 1 per instruction, strided/gather memory is
        scalarised (cost ~ VF), divisions are expensive, everything else is
        a constant — no latencies, no ports, no cache.
        """
        mix = analysis.operation_mix
        cost = 0.0
        cost += (mix.int_add + mix.bitwise + mix.shift + mix.compare + mix.select) * 1.0
        cost += mix.int_mul * 2.0
        cost += (mix.float_add + mix.float_mul) * 2.0
        cost += (mix.int_div + mix.float_div) * (14.0 if vf == 1 else 14.0 * vf / 2)
        cost += mix.math_call * (10.0 if vf == 1 else 10.0 * vf / 2)
        cost += mix.convert * (1.0 if vf == 1 else 2.0)
        for pattern in analysis.access_patterns:
            if pattern.kind == "contiguous" or pattern.kind == "invariant":
                cost += 1.0
            elif pattern.kind == "strided":
                cost += 1.0 if vf == 1 else 1.0 * vf
            else:  # gather / scatter
                cost += 2.0 if vf == 1 else 2.0 * vf
        if analysis.has_predicates and vf > 1:
            cost += analysis.operation_mix.stores * 1.0  # masking overhead
        return max(cost, 1.0)

    # -- factor selection ------------------------------------------------------------

    def max_profitable_vf(self, analysis: LoopAnalysis,
                          legality: VectorizationLegality) -> int:
        widest = max(analysis.element_bits, 8)
        width_limit = max(1, self.preferred_vector_bits // widest)
        vf = 1
        while vf * 2 <= min(width_limit, legality.max_vf):
            vf *= 2
        return vf

    def select_vf(self, analysis: LoopAnalysis,
                  legality: VectorizationLegality) -> Tuple[int, Dict[int, float]]:
        max_vf = self.max_profitable_vf(analysis, legality)
        scores: Dict[int, float] = {}
        vf = 1
        best_vf, best_score = 1, float("inf")
        while vf <= max_vf:
            per_lane = self._instruction_cost(analysis, vf) / vf
            scores[vf] = per_lane
            # Strictly-better only: ties keep the narrower width (the pass is
            # conservative about wide vectors).
            if per_lane < best_score - 1e-9:
                best_score = per_lane
                best_vf = vf
            vf *= 2
        return best_vf, scores

    def select_interleave(self, analysis: LoopAnalysis, vf: int) -> int:
        """LLVM-style interleave heuristic: small bodies and reductions get a
        modest IC to expose ILP, bounded by register budget and trip count."""
        if analysis.loop.has_early_exit or analysis.loop.has_calls:
            return 1
        mix = analysis.operation_mix
        body_size = mix.total
        registers_needed = max(
            1, len({p.access.array for p in analysis.access_patterns}) + len(analysis.reductions)
        )
        register_limit = max(1, self.machine.vector_registers // (2 * registers_needed))
        interleave = 1
        if analysis.has_reduction:
            interleave = 2
        elif body_size <= 6:
            interleave = 2
        interleave = min(interleave, register_limit, self.max_interleave)
        trip = analysis.trip_count
        if trip is not None and vf * interleave * 4 > trip:
            # Don't interleave tiny loops: the epilogue would dominate.
            while interleave > 1 and vf * interleave * 4 > trip:
                interleave //= 2
        return max(1, interleave)

    # -- public API ----------------------------------------------------------------

    def decide_loop(
        self, function: IRFunction, loop: Loop,
        analysis: Optional[LoopAnalysis] = None,
    ) -> BaselineDecision:
        analysis = analysis or analyze_loop(function, loop)
        legality = check_legality(analysis, self.machine)
        if not legality.can_vectorize:
            return BaselineDecision(loop=loop, vf=1, interleave=1, legality=legality)
        vf, scores = self.select_vf(analysis, legality)
        interleave = self.select_interleave(analysis, vf)
        return BaselineDecision(
            loop=loop, vf=vf, interleave=interleave, legality=legality,
            cost_per_lane=scores,
        )

    def decide_function(self, function: IRFunction) -> Dict[int, Tuple[int, int]]:
        """Baseline (VF, IF) for every innermost loop, keyed by loop id."""
        decisions: Dict[int, Tuple[int, int]] = {}
        for loop in function.innermost_loops():
            decision = self.decide_loop(function, loop)
            decisions[loop.loop_id] = (decision.vf, decision.interleave)
        return decisions
