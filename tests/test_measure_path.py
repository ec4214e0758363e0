"""The compile-and-measure path: frozen outputs and once-per-loop analysis.

Two kinds of test live here.  The *digest* tests freeze, as literal SHA-1
values, what the cost model, the four ``measure_*`` entry points, the
pragma-text path (the :mod:`oracle.measure` reference a pragma task's
application must match) and the brute-force oracle's grid return — any
change to the measure path must leave them alone.  The *shape* tests pin
how the path gets there: one ``analyze_loop`` call per innermost loop of a
kernel's source, kept beside its IR for every later call (a pragma task's
application included); one per loop per call for annotated sources and
Polly-rewritten clones; none inside a fully planned ``simulate``; and one
pipeline answering any order of calls exactly like a fresh pipeline per
call.
"""

import dataclasses
import hashlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agents.brute_force import BruteForceAgent
from repro.analysis import loopinfo
from repro.analysis.loopinfo import analyze_loop
from repro.core.framework import compare_agents
from repro.core.pipeline import CompileAndMeasure
from repro.core.pragma_injector import inject_pragmas
from repro.datasets.llvm_suite import llvm_vectorizer_suite
from repro.datasets.mibench import mibench_suite
from repro.datasets.motivating import dot_product_kernel
from repro.datasets.polybench import polybench_suite
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.distributed import EvaluationService
from repro.frontend import parse_source
from repro.ir.lowering import lower_unit
from repro.machine.description import avx2_machine, avx512_machine
from repro.polly.transforms import clone_function
from repro.rl.spaces import DEFAULT_IF_VALUES, DEFAULT_VF_VALUES
from repro.simulator.cost import (
    estimate_iteration_cycles,
    estimate_loop_cost,
    estimate_working_set,
)
from repro.simulator.engine import Simulator
from repro.tasks import available_tasks, get_task
from repro.vectorizer.legality import check_legality
from repro.vectorizer.planner import build_plan
from oracle import measure_annotated

COST_KERNELS = {
    "saxpy": (
        "float x[4096], y[4096];\n"
        "void f(float a) { for (int i = 0; i < 4096; i++) y[i] = a * x[i] + y[i]; }"
    ),
    "reduction": (
        "float a[4096], b[4096];\n"
        "float f() { float s = 0; for (int i = 0; i < 4096; i++) "
        "s += a[i] * b[i]; return s; }"
    ),
    "predicated": (
        "float a[4096], b[4096];\n"
        "void f() { for (int i = 0; i < 4096; i++) { if (a[i] > 0) b[i] = a[i]; } }"
    ),
    "gather": (
        "int idx[4096]; float a[4096], b[4096];\n"
        "void f() { for (int i = 0; i < 4096; i++) b[i] = a[idx[i]]; }"
    ),
}
MACHINES = {"avx2": avx2_machine, "avx512": avx512_machine}

#: SHA-1 of every cost-model answer for one (kernel, machine), computed at
#: the commit before the cost memo and the (VF, IF) sweep were deleted.
COST_DIGESTS = {
    ("saxpy", "avx2"): "6c276aad68917c7836d9ef019b89a20172cc23f1",
    ("saxpy", "avx512"): "c8a8d86969a919d2be8ba9731bd743701b905052",
    ("reduction", "avx2"): "cb5ed12b755cd8b3d0eb6bb72bb826f6544dd69f",
    ("reduction", "avx512"): "06d1fa8d925f56104a68480bad5b8546758a7c4a",
    ("predicated", "avx2"): "3d535f0dfe11610cbdfd55f765137dd2a15727c0",
    ("predicated", "avx512"): "ba05eec932dde37a01af08f342315270981e8020",
    ("gather", "avx2"): "103ea63a5a275ff1321168710be5126651458c70",
    ("gather", "avx512"): "b7645c167d35485bbfc2f850c1045ffa14f9f903",
}

#: SHA-1 of every measurement of one suite (same commit).
MEASURE_DIGESTS = {
    "llvm": "2519349feeb3215861b97f9f04cfa07450a319bb",
    "polybench": "68c9978d0bb12092c769d48d8cfe868a5a95fb48",
    "mibench": "048418c99b5a209412c0a184d1cdcfaf4baec778",
}
SUITES = {
    "llvm": llvm_vectorizer_suite,
    "polybench": polybench_suite,
    "mibench": mibench_suite,
}

#: SHA-1 of the Fig. 1 brute-force search (best factors and every grid).
BRUTE_FORCE_DIGEST = "683a755b3e033bc5a09fda221f430cf4d79a788f"


def _sha1(rows) -> str:
    # repr() of a float round-trips, so equal digests mean equal bits.
    return hashlib.sha1(repr(rows).encode()).hexdigest()


def _first_loop_analysis(source):
    function = next(iter(lower_unit(parse_source(source)).values()))
    return analyze_loop(function, function.innermost_loops()[0])


def _measurement(result):
    return (result.cycles, result.compile_seconds, sorted(result.factors.items()))


class TestFrozenOutputs:
    @pytest.mark.parametrize("machine_name", MACHINES)
    @pytest.mark.parametrize("kernel_name", COST_KERNELS)
    def test_cost_model_digest(self, kernel_name, machine_name):
        machine = MACHINES[machine_name]()
        analysis = _first_loop_analysis(COST_KERNELS[kernel_name])
        legality = check_legality(analysis, machine)
        working_set = estimate_working_set(analysis, 4096)
        configs = [
            (vf, interleave)
            for vf in DEFAULT_VF_VALUES
            for interleave in DEFAULT_IF_VALUES
        ] + [(3, 5)]
        rows = [working_set]
        for vf, interleave in configs:
            for if_converted in (False, True):
                cost = estimate_iteration_cycles(
                    analysis, machine, vf, interleave, working_set, if_converted
                )
                rows.append((cost.cycles, cost.bound_by, sorted(cost.components.items())))
            loop_cost = estimate_loop_cost(
                analysis, machine, vf, interleave, 4096, legality=legality
            )
            rows.append(sorted(dataclasses.asdict(loop_cost).items()))
        assert _sha1(rows) == COST_DIGESTS[kernel_name, machine_name]

    @pytest.mark.parametrize("suite_name", SUITES)
    def test_measure_digest(self, suite_name):
        pipeline = CompileAndMeasure()
        polly = get_task("polly-tiling")
        rows = []
        for kernel in SUITES[suite_name]():
            loops = len(pipeline.lower_kernel(kernel).innermost_loops())
            rows.append(_measurement(pipeline.measure_baseline(kernel)))
            rows.append(_measurement(pipeline.measure_scalar(kernel)))
            for vf in DEFAULT_VF_VALUES:
                for interleave in DEFAULT_IF_VALUES:
                    rows.append(_measurement(
                        pipeline.measure_with_factors(kernel, {0: (vf, interleave)})
                    ))
            # Every loop annotated, only the first, and an out-of-range hint.
            for decisions in (
                {index: (4, 2) for index in range(loops)},
                {0: (8, 1)},
                {index: (64, 16) for index in range(loops)},
            ):
                annotated = inject_pragmas(
                    kernel.source, decisions, function_name=kernel.function_name
                )
                rows.append(_measurement(
                    measure_annotated(pipeline, kernel, annotated)
                ))
            for site in polly.decision_sites(kernel):
                rows.append(_measurement(
                    polly.evaluate(pipeline, kernel, site.index, (16, 1))
                ))
            rows.append(_measurement(pipeline.measure_function(
                kernel, clone_function(pipeline.lower_kernel(kernel)), {0: (4, 2)}
            )))
        assert _sha1(rows) == MEASURE_DIGESTS[suite_name]

    def test_brute_force_digest(self):
        kernel = dot_product_kernel()
        service = EvaluationService(CompileAndMeasure())
        agent = BruteForceAgent(evaluation_service=service)
        grid = agent.grid(kernel)
        best = agent.select_factors(None, kernel).action
        baseline, _ = service.cache.measure_baseline(service.pipeline, kernel)
        # The dot product has one loop: one best pair, one grid.
        rows = (
            [best],
            [sorted((action, measurement.cycles) for action, measurement in grid.items())],
            grid[best].cycles,
            baseline.cycles,
            len(grid),
        )
        assert _sha1(rows) == BRUTE_FORCE_DIGEST


@pytest.fixture
def analyze_calls(monkeypatch):
    """Loop ids passed to ``analyze_loop``, through whichever module bound it."""
    original = loopinfo.analyze_loop
    calls = []

    def counted(function, loop):
        calls.append(loop.loop_id)
        return original(function, loop)

    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro."):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _annotated(pipeline, kernel, factors):
    loops = len(pipeline.lower_kernel(kernel).innermost_loops())
    return inject_pragmas(
        kernel.source,
        {index: factors for index in range(loops)},
        function_name=kernel.function_name,
    )


#: name -> call(pipeline, kernel, (VF, IF)), one per ``measure_*`` entry point
#: and the pragma-text oracle.
ENTRY_POINTS = {
    "baseline": lambda pipeline, kernel, factors: pipeline.measure_baseline(kernel),
    "scalar": lambda pipeline, kernel, factors: pipeline.measure_scalar(kernel),
    "factors": lambda pipeline, kernel, factors: pipeline.measure_with_factors(
        kernel, {0: factors}
    ),
    "pragmas": lambda pipeline, kernel, factors: measure_annotated(
        pipeline, kernel, _annotated(pipeline, kernel, factors)
    ),
    "function": lambda pipeline, kernel, factors: pipeline.measure_function(
        kernel, clone_function(pipeline.lower_kernel(kernel)), {0: factors}
    ),
}


#: Entry points that lower ``kernel.source`` and so read the pipeline's
#: memoised analyses; the others analyse their (annotated or cloned) IR.
MEMOISED = ("baseline", "scalar", "factors")


class TestAnalyseOncePerLoop:
    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "kernel, loops", [(dot_product_kernel(), 1), (polybench_suite()[1], 2)],
        ids=["one-loop", "two-loops"],
    )
    def test_measure_costs_one_analysis_per_innermost_loop(
        self, analyze_calls, kernel, loops, entry_point
    ):
        pipeline = CompileAndMeasure()
        assert len(pipeline.lower_kernel(kernel).innermost_loops()) == loops
        ENTRY_POINTS[entry_point](pipeline, kernel, (4, 2))
        # Ids differ on a rewritten or cloned function; each is seen once.
        assert len(analyze_calls) == len(set(analyze_calls)) == loops

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    def test_a_repeated_call_analyses_only_what_is_not_memoised(
        self, analyze_calls, entry_point
    ):
        kernel = polybench_suite()[1]
        pipeline = CompileAndMeasure()
        loops = len(pipeline.lower_kernel(kernel).innermost_loops())
        first = ENTRY_POINTS[entry_point](pipeline, kernel, (4, 2))
        del analyze_calls[:]
        second = ENTRY_POINTS[entry_point](pipeline, kernel, (4, 2))
        assert _measurement(second) == _measurement(first)
        assert len(analyze_calls) == (0 if entry_point in MEMOISED else loops)

    def test_entry_points_and_task_baselines_share_one_analysis_per_loop(
        self, analyze_calls
    ):
        kernel = polybench_suite()[1]
        pipeline = CompileAndMeasure()
        analyses = pipeline.loop_analyses(kernel)
        function = pipeline.lower_kernel(kernel)
        assert sorted(analyze_calls) == sorted(analyses)
        assert all(analysis.function is function for analysis in analyses.values())
        del analyze_calls[:]
        for entry_point in MEMOISED:
            ENTRY_POINTS[entry_point](pipeline, kernel, (8, 1))
        unrolling = get_task("unrolling")
        # A pragma task's whole-kernel application prices its factor map
        # on the same IR and analyses nothing.
        get_task("vectorization").apply(pipeline, kernel, {0: (8, 2), 1: (4, 1)})
        unrolling.apply(pipeline, kernel, {0: (4,), 1: (2,)})
        for site in range(len(analyses)):
            get_task("vectorization").baseline_action(pipeline, kernel, site)
            unrolling.baseline_action(pipeline, kernel, site)
            unrolling.evaluate(pipeline, kernel, site, (4,))
        assert analyze_calls == []
        assert pipeline.simulator_memo_stats()["analysis_entries"] == len(analyses)

    def test_polly_rewriting_a_clone_leaves_the_memo_intact(self, analyze_calls):
        kernel = dot_product_kernel()
        pipeline = CompileAndMeasure()

        def measure_kernel(measuring):
            return [
                _measurement(measuring.measure_with_factors(kernel, {0: (8, 2)})),
                _measurement(measuring.measure_baseline(kernel)),
            ]

        before = measure_kernel(pipeline)
        original = pipeline.lower_kernel(kernel)
        del analyze_calls[:]
        result = POLLY.evaluate(pipeline, kernel, 0, (16, 0))
        clone = result.plan.function
        # tile_loop_nest analysed the clone, then strip-mined it.
        assert clone is not original
        assert len(clone.all_loops()) > len(original.all_loops())
        assert analyze_calls
        for loop_plan in result.plan.plans.values():
            assert loop_plan.analysis.function is clone
        assert measure_kernel(pipeline) == measure_kernel(CompileAndMeasure()) == before

    def test_fully_planned_simulate_analyses_nothing(self, analyze_calls):
        function = CompileAndMeasure().lower_kernel(polybench_suite()[1])
        plan = build_plan(function, {})
        del analyze_calls[:]
        Simulator().simulate(function, plan)
        assert analyze_calls == []

    def test_unplanned_simulate_equals_the_scalar_plan(self, analyze_calls):
        function = CompileAndMeasure().lower_kernel(polybench_suite()[1])
        unplanned = Simulator().simulate(function)
        assert len(analyze_calls) == len(function.innermost_loops())
        planned = Simulator().simulate(function, build_plan(function, {}))
        assert unplanned.total_cycles == planned.total_cycles
        assert unplanned.loop_costs == planned.loop_costs

    def test_build_plan_keeps_the_analyses_it_is_given(self, analyze_calls):
        function = CompileAndMeasure().lower_kernel(polybench_suite()[1])
        first, second = function.innermost_loops()[:2]
        given_analysis = analyze_loop(function, first)
        plan = build_plan(function, {}, analyses={first.loop_id: given_analysis})
        assert plan.plan_for(first).analysis is given_analysis
        # A loop without an entry is analysed by the planner itself.
        assert second.loop_id in analyze_calls and first.loop_id not in analyze_calls
        assert plan.plan_for(second).analysis.loop is second

    def test_brute_force_analyses_each_loop_a_constant_number_of_times(
        self, analyze_calls
    ):
        kernel = polybench_suite()[1]
        agent = BruteForceAgent(evaluation_service=EvaluationService(CompileAndMeasure()))
        loops = agent.evaluation_service.pipeline.lower_kernel(kernel).innermost_loops()
        grids = [agent.grid(kernel, index) for index in range(len(loops))]
        assert [len(grid) for grid in grids] == [35] * len(loops)
        assert agent.evaluation_service.cache.stats.misses == 35 * len(loops)
        # One analysis per loop, kept beside the IR, however many trials.
        assert sorted(analyze_calls) == sorted(loop.loop_id for loop in loops)


def _synthetic_kernels():
    """Synthetic kernels, each under two binding sets sharing name and text."""
    suite = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=6, seed=5)))
    suite += list(generate_synthetic_dataset(
        SyntheticDatasetConfig(count=2, seed=5, templates=["unknown_bound"])
    ))
    kernels = []
    for kernel in suite:
        kernels.append(kernel)
        rebound = kernel.with_source(kernel.source)
        rebound.bindings["n"] = 96
        kernels.append(rebound)
    return kernels


SYNTHETIC = _synthetic_kernels()
POLLY = get_task("polly-tiling")
#: Tasks whose ``baseline_action`` the any-order calls draw from.
BASELINE_ACTIONS = ("vectorization", "unrolling")


def _run_call(pipeline, call):
    kernel_index, entry_point, vf, interleave = call
    kernel = SYNTHETIC[kernel_index]
    if entry_point == "polly":  # measure_function on a clone polly mutated
        result = POLLY.evaluate(pipeline, kernel, 0, (16, interleave % 2))
    elif entry_point in BASELINE_ACTIONS:
        return get_task(entry_point).baseline_action(pipeline, kernel, 0)
    else:
        result = ENTRY_POINTS[entry_point](pipeline, kernel, (vf, interleave))
    return _measurement(result)


class TestAnyOrderEqualsFreshPipeline:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        calls=st.lists(
            st.tuples(
                st.integers(0, len(SYNTHETIC) - 1),
                st.sampled_from([*ENTRY_POINTS, "polly", *BASELINE_ACTIONS]),
                st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
                st.sampled_from([1, 2, 4, 8, 16]),
            ),
            min_size=1, max_size=12,
        )
    )
    def test_one_pipeline_answers_like_a_fresh_one_per_call(self, calls):
        shared = CompileAndMeasure()
        assert [_run_call(shared, call) for call in calls] == [
            _run_call(CompileAndMeasure(), call) for call in calls
        ]


class TestComparisonSmoke:
    """``compare_agents`` stays runnable for every registered task."""

    @pytest.mark.parametrize("task", available_tasks())
    def test_populated_tables_with_baseline_at_one(self, task):
        kernel = dot_product_kernel()
        comparison = compare_agents([kernel], task=task)
        assert comparison.speedups[kernel.name], task
        assert abs(comparison.speedups[kernel.name]["baseline"] - 1.0) < 1e-9
        assert comparison.format_table().render()
        assert comparison.summary_table().render()
