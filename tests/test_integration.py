"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.datasets import test_benchmarks as held_out_benchmarks
from repro.datasets.motivating import dot_product_kernel
from repro.evaluation import figure1_dot_product_grid, figure2_bruteforce_suite
from repro.evaluation.report import format_speedup_table, geometric_mean


class TestFigureShapes:
    """Fast sanity checks that the headline result shapes hold."""

    def test_figure1_shape(self):
        result = figure1_dot_product_grid()
        # The paper: baseline picks (4, 2); a majority of factor pairs beat it;
        # the best pair is clearly better than the baseline's choice.
        assert result.baseline_factors == (4, 2)
        assert result.fraction_better_than_baseline > 0.5
        assert result.best_speedup > 1.1
        assert len(result.grid) == 35
        assert result.grid[result.baseline_factors] == pytest.approx(1.0, rel=1e-9)

    def test_figure2_shape(self):
        result = figure2_bruteforce_suite()
        # Brute force never loses to the baseline, and there is clear headroom.
        assert all(value >= 0.999 for value in result.speedups.values())
        assert result.average > 1.2
        assert result.maximum > 1.5


class TestEndToEndTraining:
    @pytest.fixture(scope="class")
    def trained(self):
        kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=40, seed=0)))
        return NeuroVectorizer.train(
            kernels,
            TrainingConfig(rl_total_steps=900, rl_batch_size=150, learning_rate=5e-4,
                           pretrain_epochs=0, seed=0),
        )

    def test_rl_policy_learns_positive_reward(self, trained):
        history = trained[1].history
        assert history.final_reward_mean > history.reward_curve()[0]

    def test_method_ordering_on_held_out_benchmarks(self, trained):
        comparison = trained[0].compare_agents(list(held_out_benchmarks())[:6])
        rl = comparison.average("rl")
        brute = comparison.average("brute_force")
        assert brute >= rl >= 0.9
        assert brute > 1.2

    def test_speedup_table_renders(self, trained):
        comparison = trained[0].compare_agents(list(held_out_benchmarks())[:3])
        table = format_speedup_table(comparison.speedups, comparison.methods)
        text = table.render()
        assert "geomean" in text
        assert "brute_force" in text


class TestFrameworkTraining:
    def test_train_classmethod_produces_working_framework(self):
        kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=15, seed=2)))
        framework, artifacts = NeuroVectorizer.train(
            kernels,
            TrainingConfig(rl_total_steps=200, rl_batch_size=50, pretrain_epochs=0,
                           learning_rate=1e-3),
        )
        assert artifacts.history is not None
        result = framework.optimize_kernel(dot_product_kernel())
        assert result.cycles > 0
        assert len(result.decisions) == 1

    def test_default_framework_runs_end_to_end(self):
        framework = NeuroVectorizer.default()
        result = framework.optimize_kernel(dot_product_kernel())
        assert result.speedup_over_baseline == pytest.approx(1.0, rel=1e-6)


class TestReportHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) != geometric_mean([])  # NaN

    def test_geometric_mean_ignores_non_positive(self):
        assert geometric_mean([4.0, 0.0, -1.0]) == pytest.approx(4.0)
