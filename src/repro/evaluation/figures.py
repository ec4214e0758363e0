"""One driver per figure of the paper's evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents.brute_force import BruteForceAgent
from repro.core.framework import (
    NeuroVectorizer,
    TrainingConfig,
    build_embedding_model,
    compare_agents,
)
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import KernelSuite, LoopKernel
from repro.datasets.llvm_suite import llvm_vectorizer_suite, test_benchmarks
from repro.datasets.mibench import mibench_suite
from repro.datasets.motivating import dot_product_kernel
from repro.datasets.polybench import polybench_suite
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.distributed.service import EvaluationService
from repro.evaluation.comparison import (
    ComparisonRunner,
    TaskComparison,
    add_polly_columns,
    fit_supervised_agents,
)
from repro.evaluation.report import Table
from repro.machine.description import MachineDescription
from repro.rl.tune import ExperimentResult, run_experiments
from repro.tasks import resolve_task


# ---------------------------------------------------------------------------
# Figure 1: dot-product (VF, IF) sweep
# ---------------------------------------------------------------------------


@dataclass
class Figure1Result:
    """Speed-up over the baseline for every (VF, IF) pair of the dot product."""

    grid: Dict[Tuple[int, int], float]
    baseline_factors: Tuple[int, int]
    best_factors: Tuple[int, int]
    best_speedup: float
    fraction_better_than_baseline: float

    def format_table(self) -> Table:
        vfs = sorted({vf for vf, _ in self.grid})
        ifs = sorted({interleave for _, interleave in self.grid})
        table = Table(
            headers=["VF \\ IF"] + [str(i) for i in ifs],
            title="Figure 1: dot product speedup over the LLVM baseline "
            f"(baseline chose VF={self.baseline_factors[0]}, "
            f"IF={self.baseline_factors[1]})",
        )
        for vf in vfs:
            table.add_row([str(vf)] + [self.grid[(vf, i)] for i in ifs])
        return table


def figure1_dot_product_grid(
    *, evaluation_service: Optional[EvaluationService] = None
) -> Figure1Result:
    """Regenerate Figure 1: the oracle's grid of the motivating kernel.

    The grid is :func:`action_sweep` of the dot product on
    ``evaluation_service`` (a private serial one by default), measured
    under its pipeline's machine.
    """
    service = evaluation_service or EvaluationService(CompileAndMeasure())
    kernel = dot_product_kernel()
    sweep = action_sweep(kernel, evaluation_service=service)
    return Figure1Result(
        grid=sweep.grid,
        baseline_factors=resolve_task(None).baseline_action(service.pipeline, kernel, 0),
        best_factors=sweep.best_action,
        best_speedup=sweep.best_speedup,
        fraction_better_than_baseline=sweep.fraction_better_than_baseline,
    )


# ---------------------------------------------------------------------------
# Figure 2: brute-force vs baseline on the vectorizer test-suite
# ---------------------------------------------------------------------------


@dataclass
class Figure2Result:
    """Best achievable speed-up over the baseline per test-suite kernel."""

    speedups: Dict[str, float]

    @property
    def average(self) -> float:
        return float(np.mean(list(self.speedups.values())))

    @property
    def maximum(self) -> float:
        return float(max(self.speedups.values()))

    def format_table(self) -> Table:
        table = Table(
            headers=["kernel", "brute-force / baseline"],
            title="Figure 2: headroom over the baseline cost model",
        )
        for name, value in self.speedups.items():
            table.add_row([name, value])
        table.add_row(["average", self.average])
        return table


def figure2_bruteforce_suite(
    suite: Optional[KernelSuite] = None,
    *,
    evaluation_service: Optional[EvaluationService] = None,
) -> Figure2Result:
    """Regenerate Figure 2 over the LLVM-vectorizer-style kernel bank.

    Each kernel's value is its baseline cycles over the minimum of the
    oracle's grid at its one innermost loop, measured on
    ``evaluation_service`` (a private serial one by default).
    """
    service = evaluation_service or EvaluationService(CompileAndMeasure())
    speedups: Dict[str, float] = {}
    for kernel in suite or llvm_vectorizer_suite():
        loops = len(service.pipeline.lower_kernel(kernel).innermost_loops())
        if loops != 1:
            raise ValueError(
                f"Figure 2 searches one loop per kernel; {kernel.name!r} has "
                f"{loops} innermost loops"
            )
        # The best speed-up is baseline / grid minimum: division is monotone.
        speedups[kernel.name] = action_sweep(
            kernel, evaluation_service=service
        ).best_speedup
    return Figure2Result(speedups=speedups)


# ---------------------------------------------------------------------------
# Figures 5 and 6: training curves
# ---------------------------------------------------------------------------


@dataclass
class FigureCurvesResult:
    """Reward-mean and loss curves per swept configuration."""

    experiments: List[ExperimentResult]

    def final_rewards(self) -> Dict[str, float]:
        return {e.name: e.history.final_reward_mean for e in self.experiments}

    def best_configuration(self) -> str:
        return max(self.experiments, key=lambda e: e.history.final_reward_mean).name

    def format_table(self, title: str) -> Table:
        table = Table(headers=["configuration", "final reward mean", "best reward mean"],
                      title=title)
        for experiment in self.experiments:
            table.add_row(
                [
                    experiment.name,
                    experiment.history.final_reward_mean,
                    experiment.history.best_reward_mean,
                ]
            )
        return table


def _make_training_environment(
    train_count: int, seed: int, machine: Optional[MachineDescription]
):
    """Build an env factory over a synthetic corpus (shared by Figures 5/6).

    The factory accepts an optional ``tasks=`` keyword (a tuple of
    registered task names, vectorization alone by default) so
    :func:`repro.rl.tune.run_experiments` grids can sweep single-task vs
    joint multi-task configurations; per-task samples are built lazily and
    memoised across experiments.
    """
    from repro.rl.env import MultiTaskEnv, build_samples

    machine = machine or MachineDescription()
    kernels = list(
        generate_synthetic_dataset(SyntheticDatasetConfig(count=train_count, seed=seed))
    )
    pipeline = CompileAndMeasure(machine=machine)
    embedding_model = build_embedding_model(kernels)
    sample_memo = {}

    def task_samples(task):
        if task.name not in sample_memo:
            sample_memo[task.name] = build_samples(
                kernels, embedding_model, pipeline, task=task
            )
        return sample_memo[task.name]

    def make_env(tasks=None):
        task_objects = [resolve_task(name) for name in tasks or ("vectorization",)]
        return MultiTaskEnv(
            task_objects,
            {task.name: task_samples(task) for task in task_objects},
            seed=seed,
            evaluation_service=EvaluationService(pipeline),
        )

    return make_env


def figure5_hyperparameter_sweep(
    total_steps: int = 600,
    train_count: int = 40,
    learning_rates: Sequence[float] = (5e-5, 5e-4, 5e-3),
    hidden_sizes: Sequence[Tuple[int, ...]] = ((32, 32), (64, 64), (128, 128)),
    batch_sizes: Sequence[int] = (100, 200, 400),
    machine: Optional[MachineDescription] = None,
    seed: int = 0,
) -> Dict[str, FigureCurvesResult]:
    """Regenerate Figure 5: sweeps over learning rate, FCNN width, batch size.

    The paper sweeps {5e-5, 5e-4, 5e-3}, {32x32, 64x64, 128x128} and
    {500, 1000, 4000} over up to 500k steps; the defaults here are scaled to
    CI budgets but keep the same axes and relative ordering.
    """
    from repro.rl.ppo import PPOConfig

    make_env = _make_training_environment(train_count, seed, machine)
    # The learning-rate and architecture sweeps fix the batch size at a value
    # that yields several training iterations within the reduced step budget
    # (the paper's curves likewise have many iterations per configuration).
    base = PPOConfig(
        train_batch_size=max(50, min(200, total_steps // 4)),
        minibatch_size=64,
        epochs_per_batch=6,
    )
    results: Dict[str, FigureCurvesResult] = {}
    results["learning_rate"] = FigureCurvesResult(
        run_experiments(
            make_env, {"learning_rate": list(learning_rates)}, total_steps,
            base_config=base, seed=seed,
        )
    )
    results["fcnn_architecture"] = FigureCurvesResult(
        run_experiments(
            make_env, {"hidden_sizes": list(hidden_sizes),
                       "learning_rate": [5e-4]}, total_steps,
            base_config=base, seed=seed,
        )
    )
    results["batch_size"] = FigureCurvesResult(
        run_experiments(
            make_env,
            {"train_batch_size": list(batch_sizes), "learning_rate": [5e-4]},
            total_steps,
            base_config=base,
            seed=seed,
        )
    )
    return results


def figure6_action_spaces(
    total_steps: int = 600,
    train_count: int = 40,
    machine: Optional[MachineDescription] = None,
    seed: int = 0,
) -> FigureCurvesResult:
    """Regenerate Figure 6: discrete vs 1-continuous vs 2-continuous actions."""
    make_env = _make_training_environment(train_count, seed, machine)
    experiments = run_experiments(
        make_env,
        {"policy": ["discrete", "continuous1", "continuous2"],
         "learning_rate": [5e-4]},
        total_steps,
        seed=seed,
    )
    return FigureCurvesResult(experiments)


# ---------------------------------------------------------------------------
# Figures 7, 8, 9: method comparisons on held-out suites
# ---------------------------------------------------------------------------


@dataclass
class TaskComparisonFigure:
    """A Figure 7/8/9-style comparison rendered for one task."""

    comparison: TaskComparison
    title: str

    def format_table(self) -> Table:
        return self.comparison.format_table(title=self.title)

    def summary_table(self) -> Table:
        return self.comparison.summary_table()

    def average(self, method: str) -> float:
        return self.comparison.average(method)

    def geomean(self, method: str) -> float:
        return self.comparison.geomean(method)


def _train_reference_framework(
    train_count: int,
    rl_steps: int,
    machine: Optional[MachineDescription],
    seed: int,
) -> Tuple[NeuroVectorizer, List[LoopKernel]]:
    """Train on the paper's kind of corpus; returns (framework, corpus).

    Synthetic loops plus the vectorizer-suite kernels that are *not* among
    the held-out 12 test benchmarks (the paper's training set is likewise
    generated from the LLVM vectorizer tests).
    """
    corpus = list(
        generate_synthetic_dataset(SyntheticDatasetConfig(count=train_count, seed=seed))
    )
    held_out = set(test_benchmarks().names())
    corpus.extend(k for k in llvm_vectorizer_suite() if k.name not in held_out)
    framework, _ = NeuroVectorizer.train(
        corpus,
        TrainingConfig(
            rl_total_steps=rl_steps,
            rl_batch_size=150,
            learning_rate=5e-4,
            pretrain_epochs=1,
            seed=seed,
        ),
        machine=machine,
    )
    return framework, corpus


def _reference_comparison(
    framework: NeuroVectorizer,
    suite: KernelSuite,
    title: str,
    seed: int,
    supervised=None,
    label_kernels: Optional[Sequence[LoopKernel]] = None,
    combine_with: Sequence[str] = (),
) -> TaskComparisonFigure:
    """The shared body of Figures 7/8/9: one runner over the framework's
    plumbing, the paper's line-up in the paper's order, Polly appended."""
    runner = ComparisonRunner(
        evaluation_service=framework.evaluation_service,
        embedding_model=framework.embedding_model,
    )
    if label_kernels is not None:
        supervised = fit_supervised_agents(runner, label_kernels, seed=seed)
    agents = runner.default_agents(seed=seed)
    brute_force = agents.pop("brute_force")
    agents.update(supervised or {})
    agents["rl"] = framework.agent.for_task(runner.task)
    agents["brute_force"] = brute_force
    kernels = list(suite)
    comparison = runner.run(agents, kernels)
    add_polly_columns(comparison, kernels, framework.pipeline, combine_with)
    return TaskComparisonFigure(comparison=comparison, title=title)


def figure7_main_comparison(
    framework: Optional[NeuroVectorizer] = None,
    supervised=None,
    train_count: int = 60,
    rl_steps: int = 1200,
    machine: Optional[MachineDescription] = None,
    seed: int = 0,
) -> TaskComparisonFigure:
    """Regenerate Figure 7: baseline / random / NNS / decision tree / RL /
    brute force / Polly on the 12 held-out test benchmarks.

    ``framework`` is a vectorization-trained :class:`NeuroVectorizer` and
    ``supervised`` the :func:`fit_supervised_agents` mapping fitted with
    its embedding (omit it to leave NNS / decision tree out).  Without a
    framework one is trained (:func:`_train_reference_framework`) and the
    supervised agents are fitted on its training corpus.
    """
    label_kernels = None
    if framework is None:
        framework, label_kernels = _train_reference_framework(
            train_count, rl_steps, machine, seed
        )
    return _reference_comparison(
        framework,
        test_benchmarks(),
        "Figure 7: performance normalised to the baseline cost model",
        seed,
        supervised=supervised,
        label_kernels=label_kernels,
    )


def figure8_polybench(
    framework: Optional[NeuroVectorizer] = None,
    train_count: int = 60,
    rl_steps: int = 1200,
    machine: Optional[MachineDescription] = None,
    seed: int = 0,
) -> TaskComparisonFigure:
    """Regenerate Figure 8: baseline / RL / Polly (+ combined) on PolyBench."""
    if framework is None:
        framework, _ = _train_reference_framework(train_count, rl_steps, machine, seed)
    return _reference_comparison(
        framework,
        polybench_suite(),
        "Figure 8: PolyBench, performance normalised to the baseline",
        seed,
        combine_with=("rl",),
    )


def figure9_mibench(
    framework: Optional[NeuroVectorizer] = None,
    train_count: int = 60,
    rl_steps: int = 1200,
    machine: Optional[MachineDescription] = None,
    seed: int = 0,
) -> TaskComparisonFigure:
    """Regenerate Figure 9: baseline / RL / Polly on MiBench-like programs."""
    if framework is None:
        framework, _ = _train_reference_framework(train_count, rl_steps, machine, seed)
    return _reference_comparison(
        framework,
        mibench_suite(),
        "Figure 9: MiBench, performance normalised to the baseline",
        seed,
    )


# ---------------------------------------------------------------------------
# Convergence curves: per-configuration / per-task reward over training
# ---------------------------------------------------------------------------


@dataclass
class FigureConvergenceResult:
    """Reward-convergence curves per configuration and per task.

    The Figure 5/6 plot data generalized to joint training: for every
    configuration there is the joint reward-mean curve plus one curve per
    task id seen during training (for a single-task run, that one task's
    curve equals the joint curve).  ``curves`` maps ``configuration ->
    curve name -> reward means``; ``"joint"`` is the overall curve.
    """

    curves: Dict[str, Dict[str, List[float]]]
    steps: Dict[str, List[int]]

    def configurations(self) -> List[str]:
        return list(self.curves)

    def reward_curve(self, configuration: str, task: Optional[str] = None) -> List[float]:
        """One configuration's joint curve, or one of its task curves."""
        return self.curves[configuration]["joint" if task is None else task]

    def format_table(self, title: str = "reward convergence") -> Table:
        table = Table(
            headers=["configuration", "curve", "iterations", "first", "best",
                     "final"],
            title=title,
        )
        for configuration, curve_map in self.curves.items():
            for curve_name, rewards in curve_map.items():
                finite = [value for value in rewards if value == value]
                table.add_row(
                    [
                        configuration,
                        curve_name,
                        len(rewards),
                        finite[0] if finite else float("nan"),
                        max(finite) if finite else float("nan"),
                        finite[-1] if finite else float("nan"),
                    ]
                )
        return table


def figure_convergence(results) -> FigureConvergenceResult:
    """Render per-configuration/per-task reward curves from training runs.

    ``results`` is whatever holds the histories: a single
    :class:`~repro.rl.ppo.TrainingHistory`, a ``name -> TrainingHistory``
    mapping, or the :class:`~repro.rl.tune.ExperimentResult` list that
    :func:`repro.rl.tune.run_experiments` returns — so one driver plots
    both a single joint run and a whole Figure-5/6-style sweep.
    """
    from repro.rl.ppo import TrainingHistory

    if isinstance(results, TrainingHistory):
        items = [("default", results)]
    elif isinstance(results, dict):
        items = list(results.items())
    else:
        items = [(result.name, result.history) for result in results]
    curves: Dict[str, Dict[str, List[float]]] = {}
    steps: Dict[str, List[int]] = {}
    for name, history in items:
        curve_map: Dict[str, List[float]] = {"joint": history.reward_curve()}
        for task_name in history.task_names():
            curve_map[task_name] = history.reward_curve(task=task_name)
        curves[name] = curve_map
        steps[name] = history.steps()
    return FigureConvergenceResult(curves=curves, steps=steps)


# ---------------------------------------------------------------------------
# Task-generic drivers: the same figures over any registered task
# ---------------------------------------------------------------------------


@dataclass
class ActionSweepResult:
    """Speed-up over the baseline for every menu action at one site.

    The Figure-1 grid generalised over a task's own action menus: the (VF,
    IF) matrix for vectorization, the (tile, fuse) matrix for Polly tiling,
    a single unroll column for the unrolling task.  ``format_table``
    renders a matrix for two-dimensional menus and a flat list otherwise,
    with the axes labelled by the task's ``action_labels`` — nothing here
    assumes VF/IF.
    """

    task: str
    action_labels: Tuple[str, ...]
    menus: Tuple[Tuple[int, ...], ...]
    kernel: str
    site_index: int
    grid: Dict[Tuple[int, ...], float]
    baseline_cycles: float

    @property
    def best_action(self) -> Tuple[int, ...]:
        return max(self.grid, key=lambda action: self.grid[action])

    @property
    def best_speedup(self) -> float:
        return max(self.grid.values())

    @property
    def fraction_better_than_baseline(self) -> float:
        better = sum(1 for value in self.grid.values() if value >= 1.0)
        return better / len(self.grid) if self.grid else 0.0

    def format_table(self, title: str = "") -> Table:
        title = title or (
            f"action sweep (task: {self.task}, kernel: {self.kernel}, "
            f"site #{self.site_index})"
        )
        if len(self.menus) == 2:
            first, second = self.menus
            table = Table(
                headers=[f"{self.action_labels[0]} \\ {self.action_labels[1]}"]
                + [str(value) for value in second],
                title=title,
            )
            for row_value in first:
                table.add_row(
                    [str(row_value)]
                    + [self.grid[(row_value, col_value)] for col_value in second]
                )
            return table
        table = Table(
            headers=list(self.action_labels) + ["speedup over baseline"],
            title=title,
        )
        for action in sorted(self.grid):
            table.add_row([str(value) for value in action] + [self.grid[action]])
        return table


def action_sweep(
    kernel: LoopKernel,
    task=None,
    site_index: int = 0,
    *,
    evaluation_service: Optional[EvaluationService] = None,
) -> ActionSweepResult:
    """Sweep a task's whole action menu on one decision site (Figure 1 style).

    The menu is the brute-force oracle's grid, one batch on
    ``evaluation_service`` (a private serial one by default), so a shared
    service's cache serves repeats and its workers parallelise the grid
    exactly as in training.
    """
    service = evaluation_service or EvaluationService(CompileAndMeasure())
    oracle = BruteForceAgent(evaluation_service=service, task=task)
    task = oracle.task
    baseline, _ = service.cache.measure_baseline(service.pipeline, kernel)
    grid = {
        action: (
            baseline.cycles / measurement.cycles
            if measurement.cycles > 0
            else float("inf")
        )
        for action, measurement in oracle.grid(kernel, site_index).items()
    }
    return ActionSweepResult(
        task=task.name,
        action_labels=task.action_labels,
        menus=task.menus,
        kernel=kernel.name,
        site_index=site_index,
        grid=grid,
        baseline_cycles=baseline.cycles,
    )


def figure_task_comparison(
    kernels: Sequence[LoopKernel],
    task=None,
    agents=None,
    embedding_model=None,
    reward_cache=None,
    seed: int = 0,
    title: str = "",
) -> TaskComparisonFigure:
    """Render the paper's agent-vs-baseline comparison for any task.

    ``agents`` is a name → agent mapping; when omitted the training-free
    trio (baseline / random / brute force) runs, which is enough to bound
    any learned agent from below and above.  Pass a trained
    :class:`repro.agents.policy_agent.PolicyAgent` (plus the embedding it
    was trained with) to reproduce the full figure.
    """
    comparison = compare_agents(
        kernels,
        agents=agents,
        task=task,
        embedding_model=embedding_model,
        reward_cache=reward_cache,
        seed=seed,
    )
    return TaskComparisonFigure(
        comparison=comparison,
        title=title
        or f"performance normalised to the baseline (task: {comparison.task})",
    )
