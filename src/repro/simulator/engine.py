"""Whole-function cycle estimation (walks the region tree)."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.loopinfo import OperationMix, analyze_loop, _count_statement
from repro.ir.evaluate import evaluate_expr, trip_count_of
from repro.ir.nodes import Conditional, IRFunction, Loop, RegionNode, Statement
from repro.machine.description import MachineDescription, OpClass
from repro.simulator.cost import LoopCost, estimate_loop_cost

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.vectorizer.planner import FunctionVectorPlan


#: :class:`OperationMix` count fields paired with the op class that prices
#: them, in the order the statement pricer accumulates.
_MIX_OP_CLASSES: Tuple[Tuple[str, OpClass], ...] = (
    ("int_add", OpClass.INT_ADD),
    ("int_mul", OpClass.INT_MUL),
    ("int_div", OpClass.INT_DIV),
    ("float_add", OpClass.FLOAT_ADD),
    ("float_mul", OpClass.FLOAT_MUL),
    ("float_div", OpClass.FLOAT_DIV),
    ("bitwise", OpClass.BITWISE),
    ("shift", OpClass.SHIFT),
    ("compare", OpClass.COMPARE),
    ("select", OpClass.SELECT),
    ("convert", OpClass.CONVERT),
    ("math_call", OpClass.MATH_CALL),
    ("loads", OpClass.LOAD),
    ("stores", OpClass.STORE),
)

#: An :class:`OperationMix`'s counts as a tuple in ``_MIX_OP_CLASSES`` order.
_mix_counts = attrgetter(*(name for name, _ in _MIX_OP_CLASSES))


@dataclass
class SimulatorMemoStats:
    """Hit/miss/eviction counters for the whole-function simulation memo."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class FunctionCost:
    """Estimated execution cost of one function call."""

    function: IRFunction
    machine: MachineDescription
    total_cycles: float
    loop_costs: Dict[int, LoopCost] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.machine.cycles_to_seconds(self.total_cycles)

    def speedup_over(self, other: "FunctionCost") -> float:
        """How much faster *this* cost is than ``other`` (>1 means faster)."""
        if self.total_cycles <= 0:
            return float("inf")
        return other.total_cycles / self.total_cycles


class Simulator:
    """Estimates cycles for IR functions under a vectorization plan.

    ``bindings`` provide runtime values for symbolic loop bounds and scalar
    parameters (the equivalent of the paper's test harness choosing concrete
    array sizes); any symbol still unknown falls back to
    ``default_symbol_value``.

    A simulator memoises whole simulations (``_simulate_cache``, an LRU
    keyed by function identity, plan factors and bindings), the folded
    statement runs of each region body (playbooks) and per-statement
    prices.  It keeps no loop analyses: a planned loop is priced from
    ``plan.plan_for(loop).analysis`` and only a loop the plan does not
    cover is analysed here.
    """

    #: Entry cap for the per-simulator memo of whole-function simulations.
    MAX_MEMO_ENTRIES = 4096

    def __init__(
        self,
        machine: Optional[MachineDescription] = None,
        bindings: Optional[Dict[str, float]] = None,
        default_symbol_value: int = 256,
    ):
        self.machine = machine or MachineDescription()
        self.bindings = dict(bindings or {})
        self.default_symbol_value = default_symbol_value
        # Memoised whole-function simulations keyed by (function, plan
        # factors, bindings), LRU-evicted at MAX_MEMO_ENTRIES.  The
        # FunctionCost values hold the function alive, so the id()-based
        # keys cannot be recycled while cached.
        self._simulate_cache: "OrderedDict[tuple, FunctionCost]" = OrderedDict()
        self.memo = SimulatorMemoStats()
        # Per-statement cycle estimates; statements are immutable during
        # simulation and shared across repeated simulations of cached IR.
        self._statement_cache: Dict[int, Tuple[Statement, float]] = {}
        # Per-region "playbooks": each region body (a statement list) reduces
        # to folded statement-run cycles interleaved with the Loop/Conditional
        # nodes that still depend on the query's plan and bindings.  Built
        # once per region, so repeated (VF, IF, unroll) queries stop
        # re-walking (and re-pricing) the statement lists.
        self._playbook_cache: Dict[int, Tuple[object, Tuple[object, ...]]] = {}
        self._op_costs = tuple(
            float(self.machine.cost(op).recip_throughput) for _, op in _MIX_OP_CLASSES
        )

    # -- public API ---------------------------------------------------------------

    def simulate(
        self,
        function: IRFunction,
        plan: Optional[FunctionVectorPlan] = None,
        extra_bindings: Optional[Dict[str, float]] = None,
    ) -> FunctionCost:
        bindings = dict(self.bindings)
        if extra_bindings:
            bindings.update(extra_bindings)
        key = (
            id(function),
            _plan_fingerprint(plan),
            tuple(sorted(bindings.items())),
        )
        cached = self._simulate_cache.get(key)
        if cached is not None and cached.function is function:
            self.memo.hits += 1
            self._simulate_cache.move_to_end(key)
            return cached
        self.memo.misses += 1
        cost = FunctionCost(function=function, machine=self.machine, total_cycles=0.0)
        cost.total_cycles = self._region_cycles(function.body, function, plan, bindings, cost)
        self._simulate_cache[key] = cost
        self._simulate_cache.move_to_end(key)
        while len(self._simulate_cache) > self.MAX_MEMO_ENTRIES:
            self._simulate_cache.popitem(last=False)
            self.memo.evictions += 1
        return cost

    def memo_stats(self) -> Dict[str, float]:
        """Counters for this simulator's memos (the whole-function LRU plus
        entry counts of the per-function statement/playbook stores)."""
        return {
            "hits": self.memo.hits,
            "misses": self.memo.misses,
            "evictions": self.memo.evictions,
            "hit_rate": self.memo.hit_rate,
            "entries": len(self._simulate_cache),
            "statement_entries": len(self._statement_cache),
            "playbook_entries": len(self._playbook_cache),
        }

    # -- region walking ---------------------------------------------------------------

    def _region_cycles(
        self,
        nodes: Iterable[RegionNode],
        function: IRFunction,
        plan: Optional[FunctionVectorPlan],
        bindings: Dict[str, float],
        cost: FunctionCost,
    ) -> float:
        if isinstance(nodes, (list, tuple)):
            items: Iterable[object] = self._region_playbook(nodes)
        else:
            # No stable identity to memoize under (e.g. a generator from an
            # external caller): walk the nodes directly.
            items = nodes
        cycles = 0.0
        for item in items:
            if type(item) is float:
                cycles += item  # a pre-priced statement run
            elif isinstance(item, Statement):
                cycles += self._statement_cycles(item)
            elif isinstance(item, Conditional):
                then_cycles = self._region_cycles(
                    item.then_body, function, plan, bindings, cost
                )
                else_cycles = self._region_cycles(
                    item.else_body, function, plan, bindings, cost
                )
                cycles += 1.0 + max(then_cycles, else_cycles)
            elif isinstance(item, Loop):
                cycles += self._loop_cycles(item, function, plan, bindings, cost)
        return cycles

    def _region_playbook(self, nodes) -> Tuple[object, ...]:
        """Reduce a region body to folded statement-run cycles plus the
        plan-dependent nodes, memoized by body identity.

        Consecutive statements are priced once and folded into a single
        float (their in-order sum), so per-plan queries only re-evaluate
        the Loop and Conditional entries.  The body list is pinned in the
        cache value to keep its id() from being recycled.
        """
        key = id(nodes)
        cached = self._playbook_cache.get(key)
        if cached is not None and cached[0] is nodes:
            return cached[1]
        items: List[object] = []
        run: List[Statement] = []
        for node in nodes:
            if isinstance(node, Statement):
                run.append(node)
                continue
            if run:
                items.append(self._statement_run_cycles(run))
                run = []
            if isinstance(node, (Conditional, Loop)):
                items.append(node)
        if run:
            items.append(self._statement_run_cycles(run))
        playbook = tuple(items)
        self._playbook_cache[key] = (nodes, playbook)
        return playbook

    def _loop_cycles(
        self,
        loop: Loop,
        function: IRFunction,
        plan: Optional[FunctionVectorPlan],
        bindings: Dict[str, float],
        cost: FunctionCost,
    ) -> float:
        trip = self._runtime_trip_count(loop, bindings)
        if loop.is_innermost:
            loop_plan = plan.plan_for(loop) if plan is not None else None
            if loop_plan is not None:
                loop_cost = estimate_loop_cost(
                    loop_plan.analysis,
                    self.machine,
                    loop_plan.vf,
                    loop_plan.interleave,
                    trip,
                    legality=loop_plan.legality,
                )
            else:
                # A loop the plan does not cover runs scalar; this is the
                # only analysis the engine does itself.
                loop_cost = estimate_loop_cost(
                    analyze_loop(function, loop), self.machine, 1, 1, trip
                )
            cost.loop_costs[loop.loop_id] = loop_cost
            return loop_cost.total_cycles + 2.0
        body_cycles = self._region_cycles(loop.body, function, plan, bindings, cost)
        per_iteration = body_cycles + self.machine.loop_overhead_cycles
        return trip * per_iteration + 4.0

    # -- leaves ----------------------------------------------------------------------

    def _statement_cycles(self, statement: Statement) -> float:
        cached = self._statement_cache.get(id(statement))
        if cached is not None and cached[0] is statement:
            return cached[1]
        cycles = self._statement_cycles_uncached(statement)
        self._statement_cache[id(statement)] = (statement, cycles)
        return cycles

    def _statement_cycles_uncached(self, statement: Statement) -> float:
        mix = OperationMix()
        _count_statement(statement, mix)
        cycles = 0.0
        for count, cost in zip(_mix_counts(mix), self._op_costs):
            cycles += count * cost
        return max(cycles, 0.25)

    def _statement_run_cycles(self, statements: List[Statement]) -> float:
        # An explicit in-order sum: builtin sum() compensates floats on
        # Python >= 3.12, which would make cycles depend on the interpreter.
        total = 0.0
        for statement in statements:
            total += self._statement_cycles(statement)
        return total

    def _runtime_trip_count(self, loop: Loop, bindings: Dict[str, float]) -> int:
        trip = trip_count_of(
            loop.lower, loop.upper, loop.step, loop.condition_op, bindings
        )
        if trip is not None:
            return int(trip)
        if loop.trip_count is not None:
            return loop.trip_count
        # Bind every unknown symbol in the bounds to the default and retry.
        symbols = {
            ref.name
            for expr in (loop.lower, loop.upper)
            if expr is not None
            for ref in expr.scalar_refs()
        }
        padded = dict(bindings)
        for name in symbols:
            padded.setdefault(name, self.default_symbol_value)
        trip = trip_count_of(
            loop.lower, loop.upper, loop.step, loop.condition_op, padded
        )
        if trip is not None:
            return int(trip)
        return self.default_symbol_value


def _plan_fingerprint(plan: Optional[FunctionVectorPlan]) -> Optional[tuple]:
    """Stable identity of a plan's effective factors (cost-relevant state)."""
    if plan is None:
        return None
    return tuple(
        sorted((loop_id, p.vf, p.interleave) for loop_id, p in plan.plans.items())
    )


def simulate_function(
    function: IRFunction,
    plan: Optional[FunctionVectorPlan] = None,
    machine: Optional[MachineDescription] = None,
    bindings: Optional[Dict[str, float]] = None,
    default_symbol_value: int = 256,
) -> FunctionCost:
    """Convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(
        machine=machine, bindings=bindings, default_symbol_value=default_symbol_value
    )
    return simulator.simulate(function, plan)
