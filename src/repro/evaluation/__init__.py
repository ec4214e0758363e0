"""Experiment drivers that regenerate every table and figure of the paper.

Each ``figure*`` function returns a small result object with the same rows or
series the paper plots, plus a ``format_table()`` helper so benchmarks and
examples can print them; each driver is named after its figure
(``figure7_main_comparison`` is Figure 7, run by ``benchmarks/test_fig7_main.py``).
"""

from repro.evaluation.report import (
    Table,
    format_generalization_table,
    format_serving_stats_table,
    format_speedup_table,
    format_task_summary_table,
)
from repro.evaluation.splits import KernelSplit, split_kernels
from repro.evaluation.comparison import (
    ComparisonRunner,
    GeneralizationMatrix,
    SiteDecision,
    SplitComparison,
    TaskComparison,
    add_polly_columns,
    fit_supervised_agents,
)
from repro.evaluation.figures import (
    ActionSweepResult,
    Figure1Result,
    Figure2Result,
    FigureConvergenceResult,
    FigureCurvesResult,
    TaskComparisonFigure,
    action_sweep,
    figure1_dot_product_grid,
    figure2_bruteforce_suite,
    figure5_hyperparameter_sweep,
    figure6_action_spaces,
    figure7_main_comparison,
    figure8_polybench,
    figure9_mibench,
    figure_convergence,
    figure_task_comparison,
)

__all__ = [
    "Table",
    "format_generalization_table",
    "format_serving_stats_table",
    "format_speedup_table",
    "format_task_summary_table",
    "KernelSplit",
    "split_kernels",
    "ComparisonRunner",
    "GeneralizationMatrix",
    "SiteDecision",
    "SplitComparison",
    "TaskComparison",
    "add_polly_columns",
    "fit_supervised_agents",
    "ActionSweepResult",
    "Figure1Result",
    "Figure2Result",
    "FigureConvergenceResult",
    "FigureCurvesResult",
    "TaskComparisonFigure",
    "action_sweep",
    "figure_convergence",
    "figure1_dot_product_grid",
    "figure2_bruteforce_suite",
    "figure5_hyperparameter_sweep",
    "figure6_action_spaces",
    "figure7_main_comparison",
    "figure8_polybench",
    "figure9_mibench",
    "figure_task_comparison",
]
