"""Cost model for one innermost loop under a (VF, IF) choice.

Two pure functions of a :class:`LoopAnalysis`: the per-iteration model
(:func:`estimate_iteration_cycles`) and the whole-loop model built on it
(:func:`estimate_loop_cost`).  Nothing is memoised here — a measure call
asks for each (loop, configuration) once, and whole simulations are
memoised one level up by :class:`repro.simulator.engine.Simulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.analysis.loopinfo import LoopAnalysis
from repro.machine.description import MachineDescription, OpClass

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.vectorizer.legality import VectorizationLegality


def memo_stats() -> Dict[str, float]:
    """The two counters ``benchmarks/e2e/workloads.py`` still reads.

    The (VF, IF) sweep they counted is gone, so both are always zero; the
    function goes when the benchmark drops its two sweep metrics (ROADMAP,
    "Benchmark upkeep").
    """
    return {"sweeps": 0, "swept_configs": 0}


@dataclass
class IterationCost:
    """Cycles of one (vector) loop iteration and what bounds it."""

    cycles: float
    bound_by: str
    components: Dict[str, float] = field(default_factory=dict)


@dataclass
class LoopCost:
    """Total cost of executing one innermost loop with chosen factors."""

    vf: int
    interleave: int
    trip_count: int
    total_cycles: float
    vector_iterations: int
    epilogue_iterations: int
    vector_iteration: IterationCost
    scalar_iteration: IterationCost
    prologue_cycles: float
    epilogue_cycles: float
    reduction_combine_cycles: float

    @property
    def cycles_per_element(self) -> float:
        return self.total_cycles / max(1, self.trip_count)


# ---------------------------------------------------------------------------
# Per-iteration model
# ---------------------------------------------------------------------------


def _reduction_op_class(op: str, is_float: bool) -> OpClass:
    if op == "*":
        return OpClass.FLOAT_MUL if is_float else OpClass.INT_MUL
    if op in ("&", "|", "^"):
        return OpClass.BITWISE
    # '+', 'min', 'max' all behave like an add for latency purposes.
    return OpClass.FLOAT_ADD if is_float else OpClass.INT_ADD


def estimate_working_set(analysis: LoopAnalysis, trip_count: int) -> float:
    """Bytes the loop touches over its full trip (per array, capped at the
    declared array size when known)."""
    per_array: Dict[str, float] = {}
    for pattern in analysis.access_patterns:
        stride = pattern.stride_elements
        element_bytes = pattern.element_bytes
        if pattern.kind == "invariant":
            touched = float(element_bytes)
        elif stride is None:
            touched = float(trip_count) * 64.0  # gather: assume a line per element
        else:
            touched = float(trip_count) * abs(stride) * element_bytes
        info = analysis.function.arrays.get(pattern.access.array)
        if info is not None and info.element_count is not None:
            touched = min(touched, info.element_count * info.dtype.size_bytes)
        name = pattern.access.array
        per_array[name] = max(per_array.get(name, 0.0), touched)
    return sum(per_array.values())


def estimate_iteration_cycles(
    analysis: LoopAnalysis,
    machine: MachineDescription,
    vf: int,
    interleave: int,
    working_set_bytes: float,
    if_converted: bool = False,
) -> IterationCost:
    """Cycles for one loop iteration processing ``vf * interleave`` elements.

    With ``vf == interleave == 1`` this is the scalar iteration cost.  The
    model takes the maximum of four structural bounds (compute throughput,
    memory-port throughput, recurrence latency, cache/DRAM bandwidth) and
    adds loop control overhead and any register-spill traffic.
    """
    mix = analysis.operation_mix
    elements = vf * interleave
    element_bits = analysis.element_bits
    lanes = machine.lanes_for(element_bits)
    parts = machine.physical_parts(vf, element_bits)
    copies = parts * interleave  # physical ops per logical body operation

    def rt(op_class: OpClass) -> float:
        return machine.cost(op_class).recip_throughput

    def lat(op_class: OpClass) -> float:
        return machine.cost(op_class).latency

    # ---- compute throughput -------------------------------------------------
    compute_cycles = copies * (
        mix.int_add * rt(OpClass.INT_ADD)
        + mix.int_mul * rt(OpClass.INT_MUL)
        + mix.int_div * rt(OpClass.INT_DIV)
        + mix.float_add * rt(OpClass.FLOAT_ADD)
        + mix.float_mul * rt(OpClass.FLOAT_MUL)
        + mix.float_div * rt(OpClass.FLOAT_DIV)
        + mix.bitwise * rt(OpClass.BITWISE)
        + mix.shift * rt(OpClass.SHIFT)
        + mix.compare * rt(OpClass.COMPARE)
        + mix.select * rt(OpClass.SELECT)
        + mix.convert * rt(OpClass.CONVERT)
        + mix.math_call * rt(OpClass.MATH_CALL)
    )
    # Division units are not duplicated per lane: wide divides serialise.
    if mix.int_div or mix.float_div or mix.math_call:
        compute_cycles += (
            (mix.int_div + mix.float_div + mix.math_call)
            * max(0, vf - lanes)
            * 0.5
            * interleave
        )

    # ---- memory ports --------------------------------------------------------
    load_cycles = 0.0
    store_cycles = 0.0
    bytes_moved = 0.0
    line = machine.cache.line_bytes
    for pattern in analysis.access_patterns:
        access_lanes = machine.lanes_for(pattern.element_bytes * 8)
        access_parts = machine.physical_parts(vf, pattern.element_bytes * 8)
        aligned = _is_aligned(analysis, pattern, machine)
        misalign = 1.0 if aligned else 1.0 + machine.misalignment_penalty
        # Scalarised (strided/gather) vector accesses get more expensive per
        # element as the body is replicated: each extra physical copy adds
        # extract/insert traffic and code that no longer fits the uop cache.
        scalarisation_factor = 1.0 + 0.2 * max(0, access_parts * interleave - 1)
        if pattern.access.is_write:
            if pattern.kind == "contiguous":
                cost = access_parts * interleave * rt(OpClass.STORE) * misalign
                moved = elements * pattern.element_bytes
            elif pattern.kind == "invariant":
                cost = rt(OpClass.STORE)
                moved = pattern.element_bytes
            elif pattern.kind == "strided":
                cost = elements * machine.strided_cost_per_element * scalarisation_factor
                moved = elements * min(
                    line, abs(pattern.stride_elements or 1) * pattern.element_bytes
                )
            else:  # scatter
                cost = elements * machine.scatter_cost_per_element * scalarisation_factor
                moved = elements * min(line, 64)
            store_cycles += cost
        else:
            if pattern.kind == "contiguous":
                cost = access_parts * interleave * rt(OpClass.LOAD) * misalign
                moved = elements * pattern.element_bytes
            elif pattern.kind == "invariant":
                cost = 0.1  # hoisted out of the loop by LICM
                moved = 0.0
            elif pattern.kind == "strided":
                cost = elements * machine.strided_cost_per_element * scalarisation_factor
                moved = elements * min(
                    line, abs(pattern.stride_elements or 1) * pattern.element_bytes
                )
            else:  # gather
                cost = elements * machine.gather_cost_per_element * scalarisation_factor
                moved = elements * min(line, 64)
            load_cycles += cost
        bytes_moved += moved

    # Predicated bodies need masks/blends on their memory operations.
    if if_converted and vf > 1:
        mask_ops = (mix.stores + max(1, analysis.predicate_count)) * copies
        store_cycles += mask_ops * rt(OpClass.SHUFFLE) * 0.5
        compute_cycles += analysis.predicate_count * copies * rt(OpClass.SELECT)

    # ---- issue width ---------------------------------------------------------
    total_uops = (
        copies * (mix.arithmetic + mix.compare + mix.select + mix.convert)
        + copies * mix.math_call * 4
        + load_cycles / max(rt(OpClass.LOAD), 1e-9) * rt(OpClass.LOAD) * 2
        + store_cycles / max(rt(OpClass.STORE), 1e-9) * rt(OpClass.STORE)
    )
    issue_cycles = total_uops / machine.issue_width

    # ---- recurrence latency ---------------------------------------------------
    latency_cycles = 0.0
    for reduction in analysis.reductions:
        op_class = _reduction_op_class(reduction.op, reduction.is_float)
        latency_cycles = max(latency_cycles, lat(op_class))
    graph = analysis.dependence_graph
    if graph is not None:
        distance = graph.min_carried_distance()
        if distance is not None and distance > 0:
            chain_latency = lat(OpClass.LOAD) + (
                lat(OpClass.FLOAT_ADD) if mix.float_add or mix.float_mul
                else lat(OpClass.INT_ADD)
            )
            latency_cycles = max(latency_cycles, chain_latency * elements / distance)
        if graph.scalar_recurrences:
            # A non-reduction scalar recurrence serialises every element: the
            # chain advances one element per operation latency, so unrolling
            # (interleave) cannot hide it.
            serial_latency = (
                lat(OpClass.FLOAT_ADD)
                if mix.float_add or mix.float_mul or mix.float_div
                else lat(OpClass.INT_ADD)
            )
            latency_cycles = max(latency_cycles, serial_latency * elements)

    # ---- cache / DRAM bandwidth ----------------------------------------------
    bandwidth = machine.cache.effective_bandwidth(working_set_bytes)
    bandwidth_cycles = bytes_moved / max(bandwidth, 1e-9)
    # Latency exposure of the first miss per line is blended into bandwidth
    # for streaming loops; gathers expose more of it.
    if analysis.gather_accesses:
        bandwidth_cycles += (
            analysis.gather_accesses
            * elements
            * 0.02
            * machine.cache.effective_load_latency(working_set_bytes)
        )

    # ---- register pressure -----------------------------------------------------
    # Reduction accumulators must stay live across the whole iteration, and
    # every replicated copy of the body keeps some in-flight temporaries per
    # distinct memory stream.  Excess pressure turns into spill traffic; the
    # charge per spilled value is mild (L1-hitting stores/reloads that mostly
    # overlap with other work) but it grows with how many streams the body
    # juggles, which is what eventually makes extreme VF*IF counter-productive
    # on multi-array kernels while leaving single-stream reductions cheap.
    distinct_arrays = len({p.access.array for p in analysis.access_patterns})
    live_vectors = (
        len(analysis.reductions) * parts * interleave
        + 0.4 * distinct_arrays * parts * interleave
        + 2
    )
    spill_cycles = 0.0
    if vf > 1 or interleave > 1:
        excess = live_vectors - machine.vector_registers
        if excess > 0:
            spill_cycles = excess * (rt(OpClass.LOAD) + rt(OpClass.STORE)) * 0.75

    components = {
        "compute": compute_cycles,
        "load": load_cycles,
        "store": store_cycles,
        "issue": issue_cycles,
        "latency": latency_cycles,
        "bandwidth": bandwidth_cycles,
        "spill": spill_cycles,
    }
    bound_by = max(
        ("compute", "load", "store", "issue", "latency", "bandwidth"),
        key=lambda key: components[key],
    )
    cycles = (
        max(compute_cycles, load_cycles, store_cycles, issue_cycles,
            latency_cycles, bandwidth_cycles)
        + spill_cycles
        + machine.loop_overhead_cycles
    )
    return IterationCost(cycles=cycles, bound_by=bound_by, components=components)


def _is_aligned(
    analysis: LoopAnalysis, pattern, machine: MachineDescription
) -> bool:
    """Whether a contiguous access is known to start vector-aligned."""
    info = analysis.function.arrays.get(pattern.access.array)
    if info is None or info.alignment is None:
        return False
    return info.alignment >= machine.vector_bits // 8 or info.alignment >= 16


# ---------------------------------------------------------------------------
# Whole-loop model
# ---------------------------------------------------------------------------


def estimate_loop_cost(
    analysis: LoopAnalysis,
    machine: MachineDescription,
    vf: int,
    interleave: int,
    trip_count: int,
    legality: Optional["VectorizationLegality"] = None,
) -> LoopCost:
    """Cycles to run the whole innermost loop with the given *effective*
    factors and runtime trip count."""
    trip_count = max(0, trip_count)
    working_set = estimate_working_set(analysis, trip_count)
    if_converted = analysis.has_predicates or analysis.operation_mix.select > 0

    scalar_iteration = estimate_iteration_cycles(
        analysis, machine, 1, 1, working_set, if_converted=False
    )
    if vf <= 1 and interleave <= 1:
        total = trip_count * scalar_iteration.cycles
        return LoopCost(
            vf=1,
            interleave=1,
            trip_count=trip_count,
            total_cycles=total,
            vector_iterations=0,
            epilogue_iterations=trip_count,
            vector_iteration=scalar_iteration,
            scalar_iteration=scalar_iteration,
            prologue_cycles=0.0,
            epilogue_cycles=total,
            reduction_combine_cycles=0.0,
        )

    vector_iteration = estimate_iteration_cycles(
        analysis, machine, vf, interleave, working_set, if_converted=if_converted
    )
    elements = vf * interleave
    vector_iterations = trip_count // elements
    epilogue_iterations = trip_count - vector_iterations * elements

    prologue = 8.0  # vector loop preheader setup
    if legality is not None:
        if legality.needs_runtime_trip_check:
            prologue += machine.runtime_check_cycles
        if legality.needs_alias_checks:
            prologue += 10.0 * legality.alias_check_count

    combine = 0.0
    if analysis.reductions and vf * interleave > 1:
        parts = machine.physical_parts(vf, analysis.element_bits)
        lanes = machine.lanes_for(analysis.element_bits)
        # One vector add per extra accumulator, then a log2 shuffle tree to
        # fold the lanes of the final register.
        steps = (parts * interleave - 1) + math.log2(max(2, min(vf, lanes)))
        combine = len(analysis.reductions) * steps * machine.reduction_combine_cost_per_step

    epilogue_cycles = epilogue_iterations * scalar_iteration.cycles
    total = (
        prologue
        + vector_iterations * vector_iteration.cycles
        + epilogue_cycles
        + combine
    )
    return LoopCost(
        vf=vf,
        interleave=interleave,
        trip_count=trip_count,
        total_cycles=total,
        vector_iterations=vector_iterations,
        epilogue_iterations=epilogue_iterations,
        vector_iteration=vector_iteration,
        scalar_iteration=scalar_iteration,
        prologue_cycles=prologue,
        epilogue_cycles=epilogue_cycles,
        reduction_combine_cycles=combine,
    )
