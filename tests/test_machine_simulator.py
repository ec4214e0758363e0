"""Machine-model and cycle-simulator tests."""

import pytest

from repro.analysis.loopinfo import analyze_loop
from repro.frontend import parse_source
from repro.ir.lowering import lower_unit
from repro.machine.cache import CacheHierarchy, CacheLevel
from repro.machine.description import MachineDescription, OpClass, avx2_machine, avx512_machine, scalar_machine
from repro.simulator.compile_time import compile_time_ratio, estimate_compile_time
from repro.simulator.cost import estimate_iteration_cycles, estimate_loop_cost, estimate_working_set
from repro.simulator.engine import Simulator, simulate_function
from repro.vectorizer.planner import build_plan


def _ir(source, name=None):
    functions = lower_unit(parse_source(source))
    return next(iter(functions.values())) if name is None else functions[name]


def _analysis(source):
    function = _ir(source)
    loop = function.innermost_loops()[0]
    return function, loop, analyze_loop(function, loop)


SAXPY = "float x[4096], y[4096];\nvoid f(float a) { for (int i = 0; i < 4096; i++) y[i] = a * x[i] + y[i]; }"
FDOT = "float a[4096], b[4096];\nfloat f() { float s = 0; for (int i = 0; i < 4096; i++) s += a[i] * b[i]; return s; }"


class TestMachineDescription:
    def test_lanes_and_parts(self):
        machine = MachineDescription(vector_bits=256)
        assert machine.lanes_for(32) == 8
        assert machine.lanes_for(64) == 4
        assert machine.physical_parts(8, 32) == 1
        assert machine.physical_parts(16, 32) == 2
        assert machine.physical_parts(64, 64) == 16

    def test_presets(self):
        assert avx512_machine().vector_bits == 512
        assert scalar_machine().max_vectorize_width == 1
        assert avx2_machine().vector_bits == 256

    def test_cycles_to_seconds(self):
        machine = MachineDescription(frequency_ghz=2.0)
        assert machine.cycles_to_seconds(2e9) == pytest.approx(1.0)

    def test_op_costs_complete(self):
        machine = MachineDescription()
        for op_class in OpClass:
            cost = machine.cost(op_class)
            assert cost.latency > 0
            assert cost.recip_throughput > 0


class TestCacheHierarchy:
    def test_level_selection(self):
        cache = CacheHierarchy.skylake_like()
        assert cache.level_for_working_set(16 * 1024).name == "L1D"
        assert cache.level_for_working_set(128 * 1024).name == "L2"
        assert cache.level_for_working_set(64 * 1024 * 1024) is None

    def test_bandwidth_monotonically_decreases(self):
        cache = CacheHierarchy.skylake_like()
        small = cache.effective_bandwidth(8 * 1024)
        large = cache.effective_bandwidth(64 * 1024 * 1024)
        assert small > large

    def test_latency_increases_with_working_set(self):
        cache = CacheHierarchy.skylake_like()
        assert cache.effective_load_latency(8 * 1024) < cache.effective_load_latency(
            100 * 1024 * 1024
        )

    def test_blended_latency_between_l1_and_miss(self):
        cache = CacheHierarchy.skylake_like()
        blended = cache.blended_load_latency(1024 * 1024)
        assert cache.levels[0].latency_cycles < blended < cache.memory_latency_cycles


class TestIterationCost:
    def test_vectorization_reduces_per_element_cost(self):
        machine = MachineDescription()
        _, _, analysis = _analysis(SAXPY)
        working_set = estimate_working_set(analysis, 4096)
        scalar = estimate_iteration_cycles(analysis, machine, 1, 1, working_set)
        vector = estimate_iteration_cycles(analysis, machine, 8, 1, working_set)
        assert vector.cycles / 8 < scalar.cycles

    def test_interleave_amortises_reduction_latency(self):
        machine = MachineDescription()
        _, _, analysis = _analysis(FDOT)
        working_set = estimate_working_set(analysis, 4096)
        one = estimate_iteration_cycles(analysis, machine, 8, 1, working_set)
        four = estimate_iteration_cycles(analysis, machine, 8, 4, working_set)
        # Per-element cost must drop when interleaving hides the FP add latency.
        assert four.cycles / (8 * 4) < one.cycles / 8

    def test_latency_bound_for_scalar_fp_reduction(self):
        machine = MachineDescription()
        _, _, analysis = _analysis(FDOT)
        working_set = estimate_working_set(analysis, 4096)
        scalar = estimate_iteration_cycles(analysis, machine, 1, 1, working_set)
        assert scalar.bound_by == "latency"
        assert scalar.cycles >= machine.cost(OpClass.FLOAT_ADD).latency

    def test_gather_more_expensive_than_contiguous(self):
        machine = MachineDescription()
        _, _, contiguous = _analysis(SAXPY)
        _, _, gathered = _analysis(
            "int idx[4096];\nfloat a[4096], b[8192];\n"
            "void f() { for (int i = 0; i < 4096; i++) a[i] = b[idx[i]]; }"
        )
        ws = estimate_working_set(contiguous, 4096)
        contiguous_cost = estimate_iteration_cycles(contiguous, machine, 8, 1, ws)
        gather_cost = estimate_iteration_cycles(gathered, machine, 8, 1, ws)
        assert gather_cost.cycles > contiguous_cost.cycles

    def test_callers_get_fresh_objects(self):
        machine = avx2_machine()
        _, _, analysis = _analysis(SAXPY)
        working_set = estimate_working_set(analysis, 4096)
        first = estimate_iteration_cycles(analysis, machine, 4, 2, working_set)
        first.components["compute"] = -1.0
        second = estimate_iteration_cycles(analysis, machine, 4, 2, working_set)
        assert second.components["compute"] != -1.0

    def test_working_set_capped_by_array_size(self):
        _, _, analysis = _analysis("float a[256];\nvoid f() { for (int i = 0; i < 256; i++) a[i] = 1; }")
        assert estimate_working_set(analysis, 256) <= 256 * 4 + 1


class TestLoopCost:
    def test_epilogue_when_factors_exceed_trip(self):
        machine = MachineDescription()
        _, loop, analysis = _analysis(
            "int a[16], b[16];\nvoid f() { for (int i = 0; i < 16; i++) a[i] = b[i]; }"
        )
        cost = estimate_loop_cost(analysis, machine, 32, 2, trip_count=16)
        assert cost.vector_iterations == 0
        assert cost.epilogue_iterations == 16

    def test_scalar_cost_is_trip_times_iteration(self):
        machine = MachineDescription()
        _, loop, analysis = _analysis(SAXPY)
        cost = estimate_loop_cost(analysis, machine, 1, 1, trip_count=100)
        assert cost.total_cycles == pytest.approx(100 * cost.scalar_iteration.cycles)

    def test_reduction_combine_charged_once(self):
        machine = MachineDescription()
        _, loop, analysis = _analysis(FDOT)
        cost = estimate_loop_cost(analysis, machine, 8, 2, trip_count=4096)
        assert cost.reduction_combine_cycles > 0

    def test_vectorized_faster_than_scalar_for_streaming(self):
        machine = MachineDescription()
        _, loop, analysis = _analysis(SAXPY)
        scalar = estimate_loop_cost(analysis, machine, 1, 1, trip_count=4096)
        vector = estimate_loop_cost(analysis, machine, 8, 2, trip_count=4096)
        assert vector.total_cycles < scalar.total_cycles

    def test_cycles_per_element(self):
        machine = MachineDescription()
        _, loop, analysis = _analysis(SAXPY)
        cost = estimate_loop_cost(analysis, machine, 8, 2, trip_count=4096)
        assert cost.cycles_per_element == pytest.approx(cost.total_cycles / 4096)


class TestSimulatorEngine:
    def test_nested_loop_cycles_scale_with_outer_trip(self):
        ir = _ir(
            "float G[64][64];\nvoid f(float x) { for (int i = 0; i < 64; i++)"
            " for (int j = 0; j < 64; j++) G[i][j] = x; }"
        )
        cost = simulate_function(ir)
        small = _ir(
            "float G[8][64];\nvoid f(float x) { for (int i = 0; i < 8; i++)"
            " for (int j = 0; j < 64; j++) G[i][j] = x; }"
        )
        small_cost = simulate_function(small)
        assert cost.total_cycles > 4 * small_cost.total_cycles

    def test_bindings_control_symbolic_trip(self):
        ir = _ir("void f(float *a, int n) { for (int i = 0; i < n; i++) a[i] = 1; }")
        short = simulate_function(ir, bindings={"n": 100})
        long = simulate_function(ir, bindings={"n": 10000})
        assert long.total_cycles > 50 * short.total_cycles

    def test_default_symbol_value_used_when_unbound(self):
        ir = _ir("void f(float *a, int n) { for (int i = 0; i < n; i++) a[i] = 1; }")
        cost = Simulator(default_symbol_value=64).simulate(ir)
        loop_cost = list(cost.loop_costs.values())[0]
        assert loop_cost.trip_count == 64

    def test_plan_changes_measured_cycles(self, machine):
        ir = _ir(SAXPY)
        loops = ir.innermost_loops()
        scalar_plan = build_plan(ir, {loops[0].loop_id: (1, 1)}, machine)
        vector_plan = build_plan(ir, {loops[0].loop_id: (8, 2)}, machine)
        scalar = simulate_function(ir, scalar_plan, machine)
        vector = simulate_function(ir, vector_plan, machine)
        assert vector.total_cycles < scalar.total_cycles
        assert vector.speedup_over(scalar) > 1.0

    def test_conditional_counts_max_branch(self):
        ir = _ir(
            "float a[8];\nvoid f(int flag) { if (flag) { a[0] = 1; } else { a[1] = 2; } }"
        )
        cost = simulate_function(ir)
        assert cost.total_cycles > 0

    def test_seconds_property(self, machine):
        ir = _ir(SAXPY)
        cost = simulate_function(ir, machine=machine)
        assert cost.seconds == pytest.approx(
            cost.total_cycles / (machine.frequency_ghz * 1e9)
        )


class TestCompileTime:
    def test_wider_factors_compile_slower(self, machine):
        ir = _ir(SAXPY)
        loops = ir.innermost_loops()
        narrow = build_plan(ir, {loops[0].loop_id: (4, 1)}, machine)
        wide = build_plan(ir, {loops[0].loop_id: (64, 16)}, machine)
        assert estimate_compile_time(ir, wide, machine) > estimate_compile_time(
            ir, narrow, machine
        )

    def test_compile_time_ratio_exceeds_limit_for_extreme_factors(self, machine):
        ir = _ir(
            "double a[4096], b[4096], c[4096], d[4096];\nvoid f() {"
            " for (int i = 0; i < 4096; i++) d[i] = a[i] * b[i] + c[i] * d[i] + a[i]; }"
        )
        loops = ir.innermost_loops()
        baseline_plan = build_plan(ir, {loops[0].loop_id: (4, 2)}, machine)
        extreme_plan = build_plan(ir, {loops[0].loop_id: (64, 16)}, machine)
        ratio = compile_time_ratio(ir, extreme_plan, baseline_plan, machine)
        assert ratio > 3.0

    def test_compile_time_positive_without_plan(self, machine):
        ir = _ir(SAXPY)
        assert estimate_compile_time(ir, None, machine) > 0
