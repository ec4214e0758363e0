"""Vectorizer legality, planning, baseline cost model and brute-force tests."""

import pytest

from repro.agents.brute_force import BruteForceAgent
from repro.analysis.loopinfo import analyze_loop
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import KernelSuite, LoopKernel
from repro.distributed import EvaluationService
from repro.evaluation import figure2_bruteforce_suite
from repro.frontend import parse_source
from repro.ir.lowering import lower_unit
from repro.machine.description import MachineDescription
from repro.rl.spaces import DEFAULT_IF_VALUES, DEFAULT_VF_VALUES
from repro.vectorizer.cost_model import BaselineCostModel
from repro.vectorizer.legality import check_legality
from repro.vectorizer.planner import build_plan, make_loop_plan
from oracle import factors_from_pragma


def _ir(source, name=None):
    functions = lower_unit(parse_source(source))
    return next(iter(functions.values())) if name is None else functions[name]


def _plan_from_pragmas(function, machine, default_vf=1):
    """Plan every loop from the pragma the frontend attached to it."""
    decisions = {
        loop.loop_id: factors_from_pragma(loop.pragma, default_vf)
        for loop in function.innermost_loops()
    }
    return build_plan(function, decisions, machine)


def _legality(source, machine=None):
    function = _ir(source)
    loop = function.innermost_loops()[0]
    return check_legality(analyze_loop(function, loop), machine or MachineDescription())


class TestLegality:
    def test_simple_loop_fully_vectorizable(self):
        legality = _legality(
            "float a[64], b[64];\nvoid f() { for (int i = 0; i < 64; i++) a[i] = b[i]; }"
        )
        assert legality.can_vectorize
        assert legality.max_vf == 64

    def test_carried_dependence_caps_vf(self):
        legality = _legality(
            "float a[64];\nvoid f() { for (int i = 8; i < 64; i++) a[i] = a[i-8] * 2; }"
        )
        assert legality.max_vf == 8

    def test_early_exit_blocks(self):
        legality = _legality(
            "int a[64];\nint f() { for (int i = 0; i < 64; i++) { if (a[i]) return i; } return -1; }"
        )
        assert not legality.can_vectorize
        assert legality.blocked_reasons

    def test_opaque_call_blocks(self):
        legality = _legality(
            "int a[64];\nvoid f() { for (int i = 0; i < 64; i++) handle(a[i]); }"
        )
        assert not legality.can_vectorize

    def test_scalar_recurrence_blocks(self):
        legality = _legality(
            "float a[64], b[64];\nvoid f() { float c = 0;"
            " for (int i = 0; i < 64; i++) { c = a[i] - c; b[i] = c; } }"
        )
        assert not legality.can_vectorize

    def test_predicate_requires_if_conversion(self):
        legality = _legality(
            "float a[64], b[64];\nvoid f() { for (int i = 0; i < 64; i++)"
            " { if (a[i] > 0) { b[i] = a[i]; } } }"
        )
        assert legality.can_vectorize
        assert legality.needs_if_conversion

    def test_unknown_trip_needs_runtime_check(self):
        legality = _legality(
            "void f(float *a, int n) { for (int i = 0; i < n; i++) a[i] = 1; }"
        )
        assert legality.needs_runtime_trip_check

    def test_pointer_params_need_alias_checks(self):
        legality = _legality(
            "void f(float *a, float *b) { for (int i = 0; i < 64; i++) a[i] = b[i]; }"
        )
        assert legality.needs_alias_checks
        assert legality.alias_check_count == 1

    def test_global_arrays_need_no_alias_checks(self):
        legality = _legality(
            "float a[64], b[64];\nvoid f() { for (int i = 0; i < 64; i++) a[i] = b[i]; }"
        )
        assert not legality.needs_alias_checks

    def test_clamp_vf_power_of_two(self):
        legality = _legality(
            "float a[64], b[64];\nvoid f() { for (int i = 0; i < 64; i++) a[i] = b[i]; }"
        )
        assert legality.clamp_vf(6) == 4
        assert legality.clamp_vf(64) == 64
        assert legality.clamp_vf(1) == 1

    def test_describe_text(self):
        legality = _legality(
            "float a[64], b[64];\nvoid f() { for (int i = 0; i < 64; i++) a[i] = b[i]; }"
        )
        assert "vectorizable" in legality.describe()


class TestPlanner:
    SOURCE = "float a[4096], b[4096];\nvoid f() { for (int i = 0; i < 4096; i++) a[i] = b[i]; }"

    def test_requested_factors_clamped_to_legal(self, machine):
        function = _ir(
            "float a[64];\nvoid f() { for (int i = 4; i < 64; i++) a[i] = a[i-4]; }"
        )
        loop = function.innermost_loops()[0]
        plan = make_loop_plan(function, loop, requested_vf=64, requested_interleave=4, machine=machine)
        assert plan.requested_vf == 64
        assert plan.vf == 4  # legality cap

    def test_illegal_loop_falls_back_to_scalar(self, machine):
        function = _ir(
            "int a[64];\nvoid f() { for (int i = 0; i < 64; i++) { if (a[i]) break; a[i] = 1; } }"
        )
        loop = function.innermost_loops()[0]
        plan = make_loop_plan(function, loop, 16, 4, machine)
        assert plan.vf == 1

    def test_interleave_clamped_to_machine_max(self, machine):
        function = _ir(self.SOURCE)
        loop = function.innermost_loops()[0]
        plan = make_loop_plan(function, loop, 8, 1024, machine)
        assert plan.interleave == machine.max_interleave

    def test_non_power_of_two_request_rounded_down(self, machine):
        function = _ir(self.SOURCE)
        loop = function.innermost_loops()[0]
        plan = make_loop_plan(function, loop, 6, 3, machine)
        assert plan.vf == 4
        assert plan.interleave == 2

    def test_build_plan_defaults_missing_loops_to_scalar(self, machine):
        function = _ir(self.SOURCE)
        plan = build_plan(function, {}, machine)
        loop_plan = list(plan.plans.values())[0]
        assert loop_plan.vf == 1 and loop_plan.interleave == 1

    def test_plan_from_pragmas(self, machine):
        function = _ir(
            "float a[4096];\nvoid f() {\n"
            "#pragma clang loop vectorize_width(16) interleave_count(4)\n"
            "for (int i = 0; i < 4096; i++) a[i] = 1; }"
        )
        plan = _plan_from_pragmas(function, machine)
        loop_plan = list(plan.plans.values())[0]
        assert (loop_plan.vf, loop_plan.interleave) == (16, 4)

    def test_plan_from_disable_pragma(self, machine):
        function = _ir(
            "float a[4096];\nvoid f() {\n"
            "#pragma clang loop vectorize(disable)\n"
            "for (int i = 0; i < 4096; i++) a[i] = 1; }"
        )
        plan = _plan_from_pragmas(function, machine, default_vf=8)
        loop_plan = list(plan.plans.values())[0]
        assert loop_plan.vf == 1

    def test_factors_helper(self, machine):
        function = _ir(self.SOURCE)
        loop = function.innermost_loops()[0]
        plan = build_plan(function, {loop.loop_id: (8, 2)}, machine)
        assert plan.factors()[loop.loop_id] == (8, 2)


class TestBaselineCostModel:
    def test_dot_product_matches_paper_choice(self, machine):
        function = _ir(
            "int vec[512] __attribute__((aligned(16)));\n"
            "int f() { int s = 0; for (int i = 0; i < 512; i++) s += vec[i] * vec[i]; return s; }"
        )
        decision = BaselineCostModel(machine=machine).decide_loop(
            function, function.innermost_loops()[0]
        )
        # The paper reports the baseline choosing (VF=4, IF=2) for this kernel.
        assert (decision.vf, decision.interleave) == (4, 2)

    def test_baseline_never_exceeds_preferred_width(self, machine):
        function = _ir(
            "double a[4096], b[4096];\nvoid f() { for (int i = 0; i < 4096; i++) a[i] = b[i]; }"
        )
        decision = BaselineCostModel(machine=machine).decide_loop(
            function, function.innermost_loops()[0]
        )
        assert decision.vf <= 128 // 64

    def test_baseline_respects_legality(self, machine):
        function = _ir(
            "float a[64];\nvoid f() { for (int i = 1; i < 64; i++) a[i] = a[i-1]; }"
        )
        decision = BaselineCostModel(machine=machine).decide_loop(
            function, function.innermost_loops()[0]
        )
        assert decision.vf == 1

    def test_baseline_avoids_interleaving_tiny_loops(self, machine):
        function = _ir(
            "int a[8], b[8];\nvoid f() { for (int i = 0; i < 8; i++) a[i] = b[i]; }"
        )
        decision = BaselineCostModel(machine=machine).decide_loop(
            function, function.innermost_loops()[0]
        )
        assert decision.vf * decision.interleave <= 8

    def test_decide_function_covers_all_loops(self, machine):
        function = _ir(
            "float a[64], b[64];\nvoid f() {"
            " for (int i = 0; i < 64; i++) a[i] = 1;"
            " for (int j = 0; j < 64; j++) b[j] = 2; }"
        )
        decisions = BaselineCostModel(machine=machine).decide_function(function)
        assert len(decisions) == 2

    def test_cost_per_lane_recorded(self, machine):
        function = _ir(
            "float a[4096], b[4096];\nvoid f() { for (int i = 0; i < 4096; i++) a[i] = b[i]; }"
        )
        decision = BaselineCostModel(machine=machine).decide_loop(
            function, function.innermost_loops()[0]
        )
        assert 1 in decision.cost_per_lane
        assert decision.cost_per_lane[1] > 0


def _oracle(source, machine):
    """A brute-force agent on a fresh service, and ``source`` as kernel ``f``."""
    service = EvaluationService(CompileAndMeasure(machine=machine))
    kernel = LoopKernel(name="f", source=source, function_name="f")
    return BruteForceAgent(evaluation_service=service), kernel


class TestBruteForce:
    def test_brute_force_beats_or_matches_baseline(self, machine):
        agent, kernel = _oracle(
            "float a[4096], b[4096];\nfloat f() { float s = 0;"
            " for (int i = 0; i < 4096; i++) s += a[i] * b[i]; return s; }",
            machine,
        )
        service = agent.evaluation_service
        best = agent.grid(kernel)[agent.select_factors(None, kernel).action]
        baseline, _ = service.cache.measure_baseline(service.pipeline, kernel)
        assert best.cycles <= baseline.cycles
        assert best.cycles == min(m.cycles for m in agent.grid(kernel).values())

    def test_grid_covers_all_35_pairs(self, machine):
        agent, kernel = _oracle(
            "float a[512];\nvoid f() { for (int i = 0; i < 512; i++) a[i] = 1; }",
            machine,
        )
        assert len(agent.grid(kernel)) == 35

    def test_best_factors_are_in_the_menu(self, machine):
        agent, kernel = _oracle(
            "float a[512];\nvoid f() { for (int i = 0; i < 512; i++) a[i] = a[i] * 2; }",
            machine,
        )
        vf, interleave = agent.select_factors(None, kernel).action
        assert vf in DEFAULT_VF_VALUES
        assert interleave in DEFAULT_IF_VALUES

    def test_multi_loop_search_is_per_loop(self, machine):
        agent, kernel = _oracle(
            "float a[512], b[512];\nvoid f() {"
            " for (int i = 0; i < 512; i++) a[i] = 1;"
            " for (int j = 0; j < 512; j++) b[j] = 2; }",
            machine,
        )
        grids = [agent.grid(kernel, loop_index) for loop_index in (0, 1)]
        assert [len(grid) for grid in grids] == [35, 35]
        assert agent.evaluation_service.cache.stats.misses == 2 * 35
        # Figure 2 searches one loop per kernel and names any other kernel.
        with pytest.raises(ValueError, match="'f' has 2 innermost loops"):
            figure2_bruteforce_suite(
                KernelSuite(name="two", kernels=[kernel]),
                evaluation_service=agent.evaluation_service,
            )
