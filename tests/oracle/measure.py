"""The pragma-text pricing path: a whole-kernel application's oracle.

A pragma task's ``apply`` prices its decision map with
``CompileAndMeasure.measure_with_factors`` on the kernel's cached IR, and the
``#pragma clang loop`` text it writes is output only.  This module is the path
that text used to take, kept so the tests can check the two agree bit for bit:
parse the annotated text, lower it, analyse every innermost loop, take the
baseline cost model's decision, let each loop's pragma override it clause by
clause (:func:`factors_from_pragma`), plan, simulate and estimate the compile
time.  Nothing is memoised: every call parses (bypassing the process-wide
frontend memo, so annotated texts never evict the kernels' own), lowers and
analyses afresh.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis import loopinfo
from repro.core.pipeline import CompilationResult, CompileAndMeasure
from repro.core.pragma_injector import inject_loop_pragmas, inject_pragmas
from repro.datasets.kernels import LoopKernel
from repro.frontend.parser import parse_source
from repro.frontend.pragmas import LoopPragma
from repro.ir.lowering import LoweringContext, lower_function
from repro.ir.nodes import IRFunction
from repro.simulator.compile_time import estimate_compile_time
from repro.simulator.engine import Simulator
from repro.vectorizer.planner import build_plan


def factors_from_pragma(
    pragma: Optional[LoopPragma], default_vf: int = 1, default_interleave: int = 1
) -> Tuple[int, int]:
    """Resolve one loop's pragma to the requested (VF, IF) pair.

    * ``vectorize(disable)`` pins the width to 1.  An ``interleave_count``
      or ``unroll_count`` still applies — clang likewise interleaves /
      unrolls a scalar loop — so ``vectorize(disable) unroll_count(8)`` is
      plain 8x unrolling, not a silently-dropped hint.
    * Otherwise ``vectorize_width`` overrides the default width, and
      ``interleave_count`` (or, failing that, ``unroll_count`` —
      interleaving is unroll-and-jam) overrides the default interleave.
    """
    if pragma is None or pragma.is_empty:
        return (default_vf, default_interleave)
    requested_interleave = pragma.interleave_count or pragma.unroll_count
    if pragma.vectorize_enable is False:
        return (1, requested_interleave or 1)
    return (
        pragma.vectorize_width or default_vf,
        requested_interleave or default_interleave,
    )


def annotate(task_name: str, kernel: LoopKernel, decisions: Dict[int, tuple]) -> str:
    """The text a pragma task writes for ``decisions``: ``vectorize_width(VF)
    interleave_count(IF)`` for vectorization, ``unroll_count(U)`` for
    unrolling."""
    if task_name == "vectorization":
        return inject_pragmas(
            kernel.source, decisions, function_name=kernel.function_name
        )
    if task_name == "unrolling":
        return inject_loop_pragmas(
            kernel.source,
            {index: LoopPragma(unroll_count=action[0]) for index, action in decisions.items()},
            function_name=kernel.function_name,
        )
    raise ValueError(f"task {task_name!r} writes no pragmas")


def lower_source(kernel: LoopKernel, source: str) -> IRFunction:
    """``kernel``'s function lowered from ``source`` instead of its own text."""
    unit = parse_source(source, filename=f"{kernel.name}.c")
    function = unit.find_function(kernel.function_name)
    if function is None:
        raise ValueError(f"kernel {kernel.name!r} has no function {kernel.function_name!r}")
    return lower_function(
        unit, function, context=LoweringContext(bindings=dict(kernel.bindings))
    )


def measure_annotated(
    pipeline: CompileAndMeasure, kernel: LoopKernel, source: str
) -> CompilationResult:
    """Measure ``kernel`` rewritten to the pragma-annotated ``source``.

    Loops without a pragma keep the baseline cost model's choice, as clang
    does when only some loops carry hints.
    """
    ir_function = lower_source(kernel, source)
    loops = ir_function.innermost_loops()
    # Through the module, so a test counting analyze_loop calls sees these.
    analyses = {loop.loop_id: loopinfo.analyze_loop(ir_function, loop) for loop in loops}
    decisions = {}
    for loop in loops:
        decision = pipeline.baseline_model.decide_loop(
            ir_function, loop, analyses[loop.loop_id]
        )
        decisions[loop.loop_id] = factors_from_pragma(
            loop.pragma, decision.vf, decision.interleave
        )
    plan = build_plan(ir_function, decisions, pipeline.machine, analyses=analyses)
    simulator = Simulator(
        machine=pipeline.machine,
        bindings=dict(kernel.bindings),
        default_symbol_value=pipeline.default_symbol_value,
    )
    factors = {}
    for index, loop in enumerate(loops):
        loop_plan = plan.plan_for(loop)
        if loop_plan is not None:
            factors[index] = (loop_plan.vf, loop_plan.interleave)
    return CompilationResult(
        kernel_name=kernel.name,
        plan=plan,
        cost=simulator.simulate(ir_function, plan),
        compile_seconds=estimate_compile_time(ir_function, plan, pipeline.machine),
        factors=factors,
    )
