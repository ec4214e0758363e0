"""Compile-and-measure pipeline (the stand-in for "clang + run + time")."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.loopinfo import LoopAnalysis, analyze_loop
from repro.datasets.kernels import LoopKernel
from repro.frontend.cache import frontend_cache
from repro.ir.lowering import LoweringContext, lower_function
from repro.ir.nodes import IRFunction
from repro.machine.description import MachineDescription
from repro.simulator.compile_time import estimate_compile_time
from repro.simulator.engine import FunctionCost, Simulator
from repro.vectorizer.cost_model import BaselineCostModel
from repro.vectorizer.planner import FunctionVectorPlan, build_plan


@dataclass
class CompilationResult:
    """What the paper would get from one compile-and-run of a kernel."""

    kernel_name: str
    plan: FunctionVectorPlan
    cost: FunctionCost
    compile_seconds: float
    factors: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.cost.total_cycles

    @property
    def seconds(self) -> float:
        return self.cost.seconds

    def speedup_over(self, other: "CompilationResult") -> float:
        return other.cycles / self.cycles if self.cycles > 0 else float("inf")


class CompileAndMeasure:
    """Parses, lowers, plans and simulates kernels under one machine model.

    Two entry points mirror the ways the paper exercises clang:

    * :meth:`measure_with_factors` — explicit per-loop (VF, IF) requests.
      This is what a ``#pragma clang loop vectorize_width(VF)
      interleave_count(IF)`` line asks clang for, so every agent, every
      brute-force trial and every whole-kernel application of a pragma task
      prices its decision map here; the annotated source text is only the
      task's output,
    * :meth:`measure_baseline` — let the built-in cost model decide, i.e.
      plain ``clang -O3``.

    Both (and :meth:`measure_function`, :meth:`measure_scalar`) run one
    body, :meth:`_measure`, which hands one analysis per innermost loop to
    the baseline decision and to the plan.  What the pipeline keeps between
    calls is one ``_ir_cache`` entry per kernel — the IR of
    ``kernel.source`` and each innermost loop's :class:`LoopAnalysis`
    (:meth:`loop_analyses`) — and one :class:`Simulator` per (kernel,
    bindings).  The already-lowered (Polly-rewritten) IR that
    :meth:`measure_function` takes is analysed afresh on every call;
    cost-model answers are never kept.
    """

    def __init__(
        self,
        machine: Optional[MachineDescription] = None,
        default_symbol_value: int = 256,
    ):
        self.machine = machine or MachineDescription()
        self.default_symbol_value = default_symbol_value
        self.baseline_model = BaselineCostModel(machine=self.machine)
        # (name, source, bindings) -> (IR, {loop_id: analysis}); the analyses
        # are filled by loop_analyses().
        self._ir_cache: Dict[tuple, Tuple[IRFunction, Dict[int, LoopAnalysis]]] = {}
        # One simulator per (kernel, bindings) so its per-function memos
        # (statement costs, region playbooks, whole simulations) survive across
        # the thousands of measure calls a training run makes per kernel.
        self._simulator_cache: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], Simulator] = {}

    # -- lowering --------------------------------------------------------------------

    def lower_kernel(self, kernel: LoopKernel) -> IRFunction:
        """Lower a kernel's source to IR (kept in ``_ir_cache``)."""
        return self._ir_entry(kernel)[0]

    def loop_analyses(self, kernel: LoopKernel) -> Dict[int, LoopAnalysis]:
        """Each innermost loop's analysis of ``kernel.source``'s IR, by loop id.

        Computed on first use and kept in the IR's ``_ir_cache`` entry, so it
        lives and dies with the IR it describes.  Callers must not mutate it.
        """
        return self._analysed(kernel)[1]

    def _analysed(self, kernel: LoopKernel) -> Tuple[IRFunction, Dict[int, LoopAnalysis]]:
        entry = ir_function, analyses = self._ir_entry(kernel)
        if not analyses:
            analyses.update(
                (loop.loop_id, analyze_loop(ir_function, loop))
                for loop in ir_function.innermost_loops()
            )
        return entry

    def _ir_entry(self, kernel: LoopKernel) -> Tuple[IRFunction, Dict[int, LoopAnalysis]]:
        # lower_function bakes the bindings into trip counts.
        key = (kernel.name, kernel.source, tuple(sorted(kernel.bindings.items())))
        cached = self._ir_cache.get(key)
        if cached is not None:
            return cached
        # Parse through the process-wide content-hash memo: repeated kernels
        # skip preprocess/tokenize/parse across pipelines and agents.
        unit = frontend_cache().parse(kernel.source, filename=f"{kernel.name}.c")
        function = unit.find_function(kernel.function_name)
        if function is None:
            raise ValueError(
                f"kernel {kernel.name!r} has no function {kernel.function_name!r}"
            )
        ir_function = lower_function(
            unit, function, context=LoweringContext(bindings=dict(kernel.bindings))
        )
        if len(self._ir_cache) > 512:
            self._ir_cache.clear()
        entry = self._ir_cache[key] = (ir_function, {})
        return entry

    def _simulator(self, kernel: LoopKernel) -> Simulator:
        key = (kernel.name, tuple(sorted(kernel.bindings.items())))
        simulator = self._simulator_cache.get(key)
        if simulator is None:
            simulator = Simulator(
                machine=self.machine,
                bindings=dict(kernel.bindings),
                default_symbol_value=self.default_symbol_value,
            )
            if len(self._simulator_cache) > 512:
                self._simulator_cache.clear()
            self._simulator_cache[key] = simulator
        return simulator

    def simulator_memo_stats(self) -> Dict[str, float]:
        """Aggregate memo counters over every cached per-kernel simulator.

        Sums the whole-function LRU's hit/miss/eviction counts and the
        entry counts of the per-function stores (statement prices, region
        playbooks), plus the loop analyses kept in ``_ir_cache``
        (``analysis_entries``), so cache-pressure regressions show up in
        :meth:`repro.core.framework.NeuroVectorizer.cache_stats_report`.
        """
        totals: Dict[str, float] = {
            "simulators": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
            "statement_entries": 0,
            "playbook_entries": 0,
        }
        for simulator in self._simulator_cache.values():
            stats = simulator.memo_stats()
            totals["simulators"] += 1
            for name in (
                "hits",
                "misses",
                "evictions",
                "entries",
                "statement_entries",
                "playbook_entries",
            ):
                totals[name] += stats[name]
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        totals["analysis_entries"] = sum(
            len(analyses) for _, analyses in self._ir_cache.values()
        )
        return totals

    def _measure(
        self,
        kernel: LoopKernel,
        ir_function: IRFunction,
        analyses: Optional[Dict[int, LoopAnalysis]] = None,
        factors_by_index: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> CompilationResult:
        """The one body behind every ``measure_*`` entry point.

        ``analyses`` are :meth:`loop_analyses` when ``ir_function`` is
        ``kernel.source``'s IR; otherwise each innermost loop is analysed
        here, once.  A loop listed in ``factors_by_index`` (keyed by
        innermost-loop index) gets those factors; any other loop gets the
        baseline cost model's choice.
        """
        loops = ir_function.innermost_loops()
        if analyses is None:
            analyses = {loop.loop_id: analyze_loop(ir_function, loop) for loop in loops}
        explicit = factors_by_index or {}
        decisions: Dict[int, Tuple[int, int]] = {}
        for index, loop in enumerate(loops):
            if index in explicit:
                decisions[loop.loop_id] = explicit[index]
                continue
            decision = self.baseline_model.decide_loop(
                ir_function, loop, analyses[loop.loop_id]
            )
            decisions[loop.loop_id] = (decision.vf, decision.interleave)
        plan = build_plan(ir_function, decisions, self.machine, analyses=analyses)
        cost = self._simulator(kernel).simulate(ir_function, plan)
        compile_seconds = estimate_compile_time(ir_function, plan, self.machine)
        factors = {}
        for index, loop in enumerate(loops):
            loop_plan = plan.plan_for(loop)
            if loop_plan is not None:
                factors[index] = (loop_plan.vf, loop_plan.interleave)
        return CompilationResult(
            kernel_name=kernel.name,
            plan=plan,
            cost=cost,
            compile_seconds=compile_seconds,
            factors=factors,
        )

    # -- measurement entry points -------------------------------------------------------

    def measure_with_factors(
        self, kernel: LoopKernel, factors_by_index: Dict[int, Tuple[int, int]]
    ) -> CompilationResult:
        """Compile with explicit (VF, IF) requests keyed by innermost-loop index."""
        return self._measure(kernel, *self._analysed(kernel), factors_by_index)

    def measure_function(
        self,
        kernel: LoopKernel,
        ir_function: IRFunction,
        factors_by_index: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> CompilationResult:
        """Measure an already-lowered (possibly transformed) IR function.

        This is the path the Polly experiments use: the polyhedral pass
        rewrites the loop structure, then either the baseline cost model
        (``factors_by_index is None``) or explicit per-loop factors decide
        the vectorization of the transformed code.  Its loops are analysed
        afresh on every call: the IR is not a ``_ir_cache`` entry.
        """
        return self._measure(kernel, ir_function, factors_by_index=factors_by_index)

    def measure_baseline(self, kernel: LoopKernel) -> CompilationResult:
        """Compile with the built-in cost model only (the paper's baseline)."""
        return self._measure(kernel, *self._analysed(kernel))

    def measure_scalar(self, kernel: LoopKernel) -> CompilationResult:
        """Compile with vectorization disabled everywhere (VF = IF = 1)."""
        ir_function, analyses = self._analysed(kernel)
        scalar = dict.fromkeys(range(len(ir_function.innermost_loops())), (1, 1))
        return self._measure(kernel, ir_function, analyses, scalar)
