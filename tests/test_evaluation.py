"""Cross-task regression tests for the task-generic evaluation layer.

The paper's headline results are agent-vs-baseline comparisons; these tests
pin the protocol that produces them for *every* registered task:

* ``compare_agents(task=t)`` produces a populated speedup table for all of
  ``vectorization``, ``polly-tiling`` and ``unrolling``,
* same-seed comparison runs are byte-identical serial vs ``workers=2``,
* a warm persistent store makes a rerun simulate nothing — and the report
  says "cache hits", not "no evaluations",
* the third task (loop unrolling) trains end-to-end through
  ``NeuroVectorizer.train`` and behaves at the known edge cases
  (conditional-wrapped nests, out-of-menu factors).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.brute_force import BruteForceAgent
from repro.agents.decision_tree import DecisionTreeAgent
from repro.agents.nns import NearestNeighborAgent
from repro.core.framework import NeuroVectorizer, TrainingConfig, compare_agents
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService, PersistentRewardStore
from repro.evaluation import (
    ComparisonRunner,
    TaskComparison,
    action_sweep,
    add_polly_columns,
    figure_task_comparison,
    fit_supervised_agents,
)
from repro.cache.reward_cache import RewardCache
from repro.simulator.engine import Simulator
from repro.tasks import UnrollingTask, available_tasks, get_task
from oracle import factors_from_pragma, lower_source, measure_annotated

ALL_TASKS = ("vectorization", "polly-tiling", "unrolling")

TWO_LOOP_SOURCE = """
float a[2048], b[2048];
float c[256][256], d[256][256];
float work() {
    float s = 0;
    for (int i = 0; i < 2048; i++) {
        s += a[i] * b[i];
    }
    for (int r = 0; r < 256; r++) {
        for (int q = 0; q < 256; q++) {
            c[r][q] = c[r][q] + d[q][r];
        }
    }
    return s;
}
"""

STREAM_SOURCE = """
float x[2048], y[2048];
void scale(float alpha) {
    for (int i = 0; i < 2048; i++) {
        y[i] = alpha * x[i];
    }
}
"""

GUARDED_SOURCE = """
float ga[4096], gb[4096], gc[4096];
void guarded(int flag) {
    for (int i = 0; i < 4096; i++) {
        ga[i] = ga[i] + 1.0f;
    }
    if (flag) {
        for (int j = 0; j < 4096; j++) {
            gb[j] = gb[j] * 2.0f;
        }
    }
    for (int k = 0; k < 4096; k++) {
        gc[k] = gc[k] + ga[k];
    }
}
"""


def two_loop_kernel() -> LoopKernel:
    return LoopKernel(name="work", source=TWO_LOOP_SOURCE, function_name="work")


def stream_kernel() -> LoopKernel:
    return LoopKernel(name="stream", source=STREAM_SOURCE, function_name="scale")


def guarded_kernel() -> LoopKernel:
    return LoopKernel(name="guarded", source=GUARDED_SOURCE, function_name="guarded")


def comparison_fingerprint(comparison: TaskComparison):
    """Everything a comparison run produced, in a directly comparable shape."""
    return (
        comparison.task,
        comparison.methods,
        comparison.speedups,
        comparison.cycles,
        comparison.baseline_cycles,
        comparison.decision_log,
    )


def count_simulations(body):
    """Run ``body()`` counting Simulator.simulate calls."""
    calls = {"n": 0}
    original = Simulator.simulate

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    Simulator.simulate = counting
    try:
        result = body()
    finally:
        Simulator.simulate = original
    return result, calls["n"]


# ---------------------------------------------------------------------------
# compare_agents across every registered task
# ---------------------------------------------------------------------------


class TestCompareAgents:
    def test_all_three_tasks_registered(self):
        assert set(ALL_TASKS) <= set(available_tasks())

    @pytest.mark.parametrize("task_name", ALL_TASKS)
    def test_populated_speedup_table_per_task(self, task_name):
        comparison = compare_agents(
            [two_loop_kernel(), stream_kernel()], task=task_name
        )
        assert comparison.task == task_name
        assert comparison.methods == ["baseline", "random", "brute_force"]
        assert set(comparison.speedups) == {"work", "stream"}
        for kernel_name, row in comparison.speedups.items():
            assert set(row) == set(comparison.methods)
            for value in row.values():
                assert value == value and value > 0  # finite, positive
            assert comparison.baseline_cycles[kernel_name] > 0
        rendered = comparison.format_table().render()
        assert task_name in rendered
        assert "work" in rendered and "stream" in rendered

    @pytest.mark.parametrize("task_name", ALL_TASKS)
    def test_baseline_method_is_exactly_one(self, task_name):
        # task.baseline_action must reproduce measure_baseline exactly —
        # the x=1.0 reference the paper normalises every figure to.
        comparison = compare_agents([two_loop_kernel()], task=task_name)
        assert comparison.speedups["work"]["baseline"] == pytest.approx(1.0)

    @pytest.mark.parametrize("task_name", ALL_TASKS)
    def test_brute_force_never_loses_to_baseline(self, task_name):
        comparison = compare_agents([two_loop_kernel()], task=task_name)
        row = comparison.speedups["work"]
        assert row["brute_force"] >= row["baseline"] - 1e-9

    def test_decision_log_matches_sites_and_menus(self):
        kernel = two_loop_kernel()
        task = get_task("unrolling")
        comparison = compare_agents([kernel], task=task)
        sites = task.decision_sites(kernel)
        for method in comparison.methods:
            decisions = comparison.decisions_for("work", method)
            assert sorted(decisions) == [site.index for site in sites]
            for action in decisions.values():
                assert action[0] in task.menus[0]

    def test_mismatched_agent_task_rejected(self):
        agents = {"brute_force": BruteForceAgent()}  # vectorization
        with pytest.raises(ValueError, match="vectorization"):
            compare_agents([stream_kernel()], agents=agents, task="unrolling")

    def test_five_reference_agents_run_through_one_comparison(self):
        # The full supervised line-up of the paper's Figure 7 through the
        # task-generic path: baseline, random, brute force, NNS, tree —
        # the embedding-driven pair fitted on the real site embeddings.
        from repro.core.framework import build_embedding_model
        from repro.tasks import get_task

        kernels = [stream_kernel(), two_loop_kernel()]
        task = get_task("vectorization")
        embedding_model = build_embedding_model(kernels)
        runner = ComparisonRunner(task=task, embedding_model=embedding_model)
        observations = [
            task.observation_features(site, embedding_model)
            for kernel in kernels
            for site in task.decision_sites(kernel)
        ]
        labels = [(4, 2), (8, 2), (8, 4)][: len(observations)]
        agents = runner.default_agents(seed=0)
        agents["nns"] = NearestNeighborAgent(k=1).fit(
            np.stack(observations), labels
        )
        agents["decision_tree"] = DecisionTreeAgent(seed=0).fit(
            np.stack(observations), labels
        )
        comparison = runner.run(agents, kernels)
        assert comparison.methods == [
            "baseline", "random", "brute_force", "nns", "decision_tree",
        ]
        assert set(comparison.speedups["stream"]) == set(comparison.methods)

    def test_embedding_driven_agent_without_model_rejected(self):
        # An NNS/tree/policy agent fed the placeholder observation would
        # repeat one decision everywhere — reject instead of tabulating it.
        agents = {
            "nns": NearestNeighborAgent(k=1).fit(np.zeros((1, 2)), [(4, 2)])
        }
        with pytest.raises(ValueError, match="embedding"):
            ComparisonRunner().run(agents, [stream_kernel()])

    def test_figure_driver_wraps_the_comparison(self):
        figure = figure_task_comparison([stream_kernel()], task="polly-tiling")
        assert "polly-tiling" in figure.format_table().render()
        assert figure.geomean("baseline") == pytest.approx(1.0)

    def test_duplicate_kernel_names_rejected_before_measuring(self):
        # Rows and decisions_for() are keyed by kernel name: two kernels
        # sharing one would collapse into one row with merged decisions.
        twin = LoopKernel(name="stream", source=TWO_LOOP_SOURCE, function_name="work")
        cache = RewardCache()
        with pytest.raises(ValueError, match=r"duplicate kernel name\(s\) \['stream'\]"):
            compare_agents(
                [stream_kernel(), two_loop_kernel(), twin], reward_cache=cache
            )
        assert cache.stats.lookups == 0

    def test_agent_pinned_to_another_task_cannot_be_repinned(self):
        unrolling = get_task("unrolling")
        pinned = BruteForceAgent(task=unrolling)
        assert pinned.for_task("unrolling") is pinned
        with pytest.raises(ValueError, match="cannot be re-pinned"):
            pinned.for_task("vectorization")
        # An agent that decides from the observation alone serves any task.
        unpinned = NearestNeighborAgent(k=1)
        assert unpinned.task is None and unpinned.for_task(unrolling) is unpinned

    def test_supervised_helper_is_task_generic_and_shares_the_cache(self):
        from repro.core.framework import build_embedding_model

        kernels = [stream_kernel(), two_loop_kernel()]
        runner = ComparisonRunner(
            task="unrolling", embedding_model=build_embedding_model(kernels)
        )
        agents = runner.default_agents(seed=0)
        agents.update(fit_supervised_agents(runner, kernels, seed=0))
        labelled = runner.reward_cache.stats.misses
        assert labelled > 0
        comparison = runner.run(agents, kernels)
        # Fitted on these very kernels with k=1, NNS replays the brute-force
        # labels, and brute force re-reads them from the shared cache.
        for kernel in kernels:
            assert comparison.decisions_for(
                kernel.name, "nns"
            ) == comparison.decisions_for(kernel.name, "brute_force")
        assert list(agents)[-2:] == ["nns", "decision_tree"]
        assert agents["decision_tree"].task is runner.task

    def test_polly_columns_append_to_a_finished_comparison(self):
        kernels = [stream_kernel(), two_loop_kernel()]
        runner = ComparisonRunner()
        comparison = runner.run(runner.default_agents(seed=0), kernels)
        returned = add_polly_columns(
            comparison, kernels, runner.pipeline, combine_with=("brute_force",)
        )
        assert returned is comparison
        assert comparison.methods[-2:] == ["polly", "polly+brute_force"]
        for kernel in kernels:
            row = comparison.speedups[kernel.name]
            assert row["polly"] > 0 and row["polly+brute_force"] > 0
            assert comparison.cycles[kernel.name]["polly"] == pytest.approx(
                comparison.baseline_cycles[kernel.name] / row["polly"]
            )
        assert "polly+brute_force" in comparison.format_table().render()
        tiling = compare_agents(kernels, task="polly-tiling")
        with pytest.raises(ValueError, match="polly-tiling"):
            add_polly_columns(tiling, kernels, runner.pipeline, combine_with=("random",))


# ---------------------------------------------------------------------------
# Serial vs sharded identity (same seed, workers=2)
# ---------------------------------------------------------------------------


class TestSerialParallelIdentity:
    @pytest.mark.parametrize("task_name", ALL_TASKS)
    def test_comparison_identical_serial_vs_workers(self, task_name):
        kernels = [two_loop_kernel(), stream_kernel()]
        serial_runner = ComparisonRunner(task=task_name)
        serial = serial_runner.run(serial_runner.default_agents(seed=7), kernels)
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            parallel_runner = ComparisonRunner(
                task=task_name, evaluation_service=service
            )
            parallel = parallel_runner.run(
                parallel_runner.default_agents(seed=7), kernels
            )
        assert comparison_fingerprint(parallel) == comparison_fingerprint(serial)

    def test_fanned_out_comparison_simulates_only_baselines_in_parent(self):
        # With workers attached, every application (and every brute-force
        # sweep) measures inside the forked workers; the parent's only
        # simulations are the phase-1 baselines.  Count what the baselines
        # alone cost on a fresh cache, then hold the fanned-out run to it.
        kernels = [two_loop_kernel(), stream_kernel()]
        probe = ComparisonRunner(task="unrolling")
        _, baseline_sims = count_simulations(
            lambda: [
                probe.reward_cache.measure_baseline(probe.pipeline, kernel)
                for kernel in kernels
            ]
        )
        assert baseline_sims > 0
        with EvaluationService(CompileAndMeasure(), workers=2) as service:
            runner = ComparisonRunner(task="unrolling", evaluation_service=service)
            comparison, simulations = count_simulations(
                lambda: runner.run(runner.default_agents(seed=7), kernels)
            )
        assert simulations == baseline_sims
        assert set(comparison.speedups) == {"work", "stream"}


# ---------------------------------------------------------------------------
# Warm persistent store: rerun simulates nothing, report shows cache hits
# ---------------------------------------------------------------------------


class TestWarmStoreRerun:
    @pytest.mark.parametrize("task_name", ALL_TASKS)
    def test_warm_rerun_zero_simulator_calls(self, task_name, tmp_path):
        kernels = [two_loop_kernel(), stream_kernel()]
        cache_dir = str(tmp_path / task_name)

        cold_cache = RewardCache(PersistentRewardStore(cache_dir))
        cold_runner = ComparisonRunner(
            task=task_name, evaluation_service=EvaluationService(CompileAndMeasure(), cold_cache)
        )
        cold = cold_runner.run(cold_runner.default_agents(seed=0), kernels)
        cold_cache.close()
        assert cold.cache_misses > 0

        warm_cache = RewardCache(PersistentRewardStore(cache_dir))
        assert warm_cache.preloaded > 0
        warm_runner = ComparisonRunner(
            task=task_name, evaluation_service=EvaluationService(CompileAndMeasure(), warm_cache)
        )
        warm, simulations = count_simulations(
            lambda: warm_runner.run(warm_runner.default_agents(seed=0), kernels)
        )
        warm_cache.close()
        assert simulations == 0
        assert comparison_fingerprint(warm) == comparison_fingerprint(cold)

    def test_fully_cache_served_run_reports_hits_not_empty(self, tmp_path):
        # Regression: every reward answered by the warm store is still an
        # evaluation — the report must show the hits, and keep the explicit
        # "no evaluations" table for runs that measured nothing at all.
        kernels = [stream_kernel()]
        cache_dir = str(tmp_path / "warm")
        cold_cache = RewardCache(PersistentRewardStore(cache_dir))
        cold_runner = ComparisonRunner(
            task="unrolling", evaluation_service=EvaluationService(CompileAndMeasure(), cold_cache)
        )
        cold_runner.run(cold_runner.default_agents(seed=0), kernels)
        cold_cache.close()

        warm_cache = RewardCache(PersistentRewardStore(cache_dir))
        warm_runner = ComparisonRunner(
            task="unrolling", evaluation_service=EvaluationService(CompileAndMeasure(), warm_cache)
        )
        warm = warm_runner.run(warm_runner.default_agents(seed=0), kernels)
        warm_cache.close()
        assert warm.cache_misses == 0
        assert warm.cache_hits > 0
        rendered = warm.cache_report().render()
        assert "no evaluations" not in rendered
        assert "fully cache-served" in rendered

        empty = warm_runner.run(warm_runner.default_agents(seed=0), [])
        assert "no evaluations" in empty.cache_report().render()


# ---------------------------------------------------------------------------
# The third task, end to end
# ---------------------------------------------------------------------------


class TestUnrollingEndToEnd:
    @pytest.fixture(scope="class")
    def trained(self):
        kernels = [two_loop_kernel(), stream_kernel()]
        config = TrainingConfig(
            task="unrolling",
            rl_total_steps=48,
            rl_batch_size=24,
            learning_rate=1e-3,
            pretrain_epochs=1,
            pretrain_samples=2,
            seed=0,
        )
        framework, artifacts = NeuroVectorizer.train(kernels, config)
        yield framework, artifacts, kernels
        framework.close()

    def test_training_runs_and_sets_task(self, trained):
        framework, artifacts, _ = trained
        assert framework.task.name == "unrolling"
        assert len(artifacts.history.iterations) == 2

    def test_optimize_kernel_applies_unroll_pragmas(self, trained):
        framework, _, kernels = trained
        result = framework.optimize_kernel(kernels[1])
        assert result.task == "unrolling"
        assert set(result.decisions) == {0}
        assert result.decisions[0][0] in framework.task.menus[0]
        assert "unroll_count" in result.transformed_source

    def test_framework_compare_agents_includes_the_policy(self, trained):
        framework, _, kernels = trained
        comparison = framework.compare_agents(kernels)
        assert comparison.methods == ["baseline", "random", "brute_force", "rl"]
        for row in comparison.speedups.values():
            assert set(row) == set(comparison.methods)
        assert comparison.geomean("baseline") == pytest.approx(1.0)

    def test_sharded_training_matches_serial(self, tmp_path):
        # The acceptance bar: workers=2 evaluation is byte-identical to
        # serial for the new task, end to end through train().
        kernels = [stream_kernel()]

        def run(workers):
            config = TrainingConfig(
                task="unrolling",
                rl_total_steps=24,
                rl_batch_size=12,
                learning_rate=1e-3,
                pretrain_epochs=0,
                seed=3,
                workers=workers,
            )
            framework, artifacts = NeuroVectorizer.train(kernels, config)
            try:
                rewards = [
                    iteration.reward_mean
                    for iteration in artifacts.history.iterations
                ]
                decisions = framework.decide_sites(kernels[0])
            finally:
                framework.close()
            return rewards, decisions

        assert run(0) == run(2)


class TestUnrollingEdgeCases:
    def test_out_of_menu_unroll_factor_rejected(self):
        with pytest.raises(ValueError, match="unroll"):
            UnrollingTask().cache_key((3,))
        with pytest.raises(ValueError):
            UnrollingTask().cache_key((4, 2))  # wrong arity

    def test_conditional_wrapped_nest_keeps_site_indices_aligned(self):
        # The PR-3 Polly bug class: a loop inside an ``if`` is its own
        # decision site and must map to the same index in the lowered IR's
        # innermost_loops() order, or unroll factors land on the wrong loop.
        kernel = guarded_kernel()
        task = UnrollingTask()
        pipeline = CompileAndMeasure()
        sites = task.decision_sites(kernel)
        assert [site.index for site in sites] == [0, 1, 2]

        ir_function = pipeline.lower_kernel(kernel)
        ir_loops = ir_function.innermost_loops()
        # The extractor's site order matches lowering's loop order by
        # induction variable — including the if-wrapped j loop.
        assert [loop.var for loop in ir_loops] == ["i", "j", "k"]

        # Unrolling exactly one site annotates exactly that loop.
        for index, var in enumerate(["i", "j", "k"]):
            application = task.apply(pipeline, kernel, {index: (8,)})
            lowered = lower_source(kernel, application.transformed_source)
            annotated = [
                loop.var
                for loop in lowered.innermost_loops()
                if loop.pragma is not None and loop.pragma.unroll_count == 8
            ]
            assert annotated == [var]

    def test_disable_pragma_keeps_the_unroll_factor(self):
        # vectorize(disable) unroll_count(8) is plain 8x scalar unrolling,
        # not a silently dropped hint (the factors_from_pragma rule).
        from repro.frontend.pragmas import parse_pragma_text

        pragma = parse_pragma_text(
            "#pragma clang loop vectorize(disable) unroll_count(8)"
        )
        assert factors_from_pragma(pragma, default_vf=16, default_interleave=4) == (1, 8)
        assert factors_from_pragma(None, 16, 4) == (16, 4)

        pipeline = CompileAndMeasure()
        kernel = stream_kernel()
        annotated = kernel.source.replace(
            "for (int i",
            "#pragma clang loop vectorize(disable) unroll_count(8)\n    for (int i",
        )
        via_pragmas = measure_annotated(pipeline, kernel, annotated)
        direct = pipeline.measure_with_factors(kernel, {0: (1, 8)})
        assert via_pragmas.cycles == direct.cycles

    def test_apply_matches_evaluate_for_single_site(self):
        task = UnrollingTask()
        pipeline = CompileAndMeasure()
        kernel = stream_kernel()
        assert (
            task.apply(pipeline, kernel, {0: (8,)}).result.cycles
            == task.evaluate(pipeline, kernel, 0, (8,)).cycles
        )

    def test_unrolling_beats_scalar_on_a_reduction(self):
        # The simulator's interleave model gives unrolling its payoff:
        # a float reduction is latency-bound, so some unroll factor must
        # beat the unrolled-by-1 version.
        source = """
        float u[2048], v[2048];
        float dot() {
            float s = 0;
            for (int i = 0; i < 2048; i++) {
                s += u[i] * v[i];
            }
            return s;
        }
        """
        kernel = LoopKernel(name="dot", source=source, function_name="dot")
        task = UnrollingTask()
        pipeline = CompileAndMeasure()
        cycles = {
            unroll: task.evaluate(pipeline, kernel, 0, (unroll,)).cycles
            for unroll in task.menus[0]
        }
        assert min(cycles.values()) < cycles[1]


# ---------------------------------------------------------------------------
# The generalized Figure-1 sweep
# ---------------------------------------------------------------------------


class TestActionSweep:
    def test_sweep_covers_the_whole_menu(self):
        task = get_task("unrolling")
        result = action_sweep(stream_kernel(), task=task)
        assert set(result.grid) == {(u,) for u in task.menus[0]}
        assert result.best_action in result.grid
        assert result.best_speedup == max(result.grid.values())
        rendered = result.format_table().render()
        assert "unroll" in rendered

    def test_two_dimensional_tasks_render_a_matrix(self):
        result = action_sweep(stream_kernel(), task="vectorization")
        rendered = result.format_table().render()
        assert "vf \\ interleave" in rendered
        # One row per VF value plus header/separator/title.
        task = get_task("vectorization")
        assert len(result.grid) == len(task.menus[0]) * len(task.menus[1])

    def test_sweep_is_cache_aware(self):
        from repro.cache.reward_cache import RewardCache

        cache = RewardCache()
        kernel = stream_kernel()
        service = EvaluationService(CompileAndMeasure(), cache)
        action_sweep(kernel, task="unrolling", evaluation_service=service)
        misses_after_cold = cache.stats.misses
        _, simulations = count_simulations(
            lambda: action_sweep(kernel, task="unrolling", evaluation_service=service)
        )
        assert simulations == 0
        assert cache.stats.misses == misses_after_cold
