"""The single comparison path reproduces the deleted Figure 7/8/9 driver.

The digests below were computed at the commit *before* the legacy
vectorization-only comparison driver (its own extract / embed / measure loop
per method, outside the reward cache) was deleted, by handing it agents neither training driver produces — an
unpretrained embedding over 20 seed-0 synthetic kernels, an untrained
discrete policy, seeded random search, brute force, and NNS / decision tree
fitted by the old labelling loop on those 20 kernels — with ``polly``, the
supervised columns and ``polly+rl`` all switched on.  Each digest is the
SHA-1 of ``repr`` of the sorted ``(kernel, method, speedup)`` rows of one
suite; they are never regenerated.  ``ComparisonRunner`` +
``fit_supervised_agents`` + ``add_polly_columns`` must land on the same
bits, which also settles that ``polly`` and ``polly+rl`` may share one
Polly-transformed function (the old driver transformed twice).

``FIGURE_DIGESTS`` freeze Figures 1 and 2 the same way: computed at the
commit before the standalone brute-force search (a private simulator per
call, outside the reward cache) was deleted, never regenerated.  The one
oracle, :class:`repro.agents.brute_force.BruteForceAgent` on an
:class:`EvaluationService`, must reproduce them bit for bit.
"""

import hashlib

import pytest

from repro.agents.policy_agent import PolicyAgent
from repro.core.framework import build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import KernelSuite
from repro.datasets.llvm_suite import llvm_vectorizer_suite
from repro.datasets.llvm_suite import test_benchmarks as held_out_benchmarks
from repro.datasets.mibench import mibench_suite
from repro.datasets.polybench import polybench_suite
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.distributed import EvaluationService
from repro.evaluation import (
    ComparisonRunner,
    add_polly_columns,
    figure1_dot_product_grid,
    figure2_bruteforce_suite,
    fit_supervised_agents,
)
from repro.machine.description import avx512_machine
from repro.rl.policy import make_policy

#: suite -> (rows, SHA-1) of the legacy driver's speedups at the parent commit.
LEGACY_DIGESTS = {
    "held_out": (96, "49a965917721d5daa09a4abc4c1a12478dadf8d8"),
    "polybench": (48, "4f12615ec445c2c02af419e789b481cc7afc9cf9"),
    "mibench": (64, "58fc88f84beefb287dd2f6e936636a7d5df49790"),
}
SUITES = {
    "held_out": held_out_benchmarks,
    "polybench": polybench_suite,
    "mibench": mibench_suite,
}
METHODS = {
    "baseline", "random", "nns", "decision_tree", "rl", "brute_force",
    "polly", "polly+rl",
}
#: A few of the frozen values in the clear, so a digest mismatch has
#: something readable next to it.
LEGACY_SAMPLES = {
    ("polybench", "2mm", "polly"): 1.4153263706679398,
    ("polybench", "2mm", "polly+rl"): 0.9012270273521927,
    ("polybench", "atax", "nns"): 1.0739599703061498,
    ("polybench", "atax", "brute_force"): 1.1178950321020686,
}


@pytest.fixture(scope="module")
def line_up():
    kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=20, seed=0)))
    model = build_embedding_model(kernels)
    runner = ComparisonRunner(
        evaluation_service=EvaluationService(CompileAndMeasure()), embedding_model=model
    )
    agents = runner.default_agents(seed=0)
    agents.update(fit_supervised_agents(runner, kernels, seed=0))
    agents["rl"] = PolicyAgent(
        make_policy("discrete", model.config.code_vector_dim, seed=0)
    )
    return runner, agents


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_runner_reproduces_legacy_driver_bit_for_bit(line_up, suite):
    runner, agents = line_up
    kernels = list(SUITES[suite]())
    comparison = runner.run(agents, kernels)
    add_polly_columns(comparison, kernels, runner.pipeline, combine_with=("rl",))
    assert set(comparison.methods) == METHODS
    rows = sorted(
        (kernel, method, value)
        for kernel, per_method in comparison.speedups.items()
        for method, value in per_method.items()
    )
    for (sample_suite, kernel, method), value in LEGACY_SAMPLES.items():
        if sample_suite == suite:
            assert comparison.speedups[kernel][method] == value
    count, digest = LEGACY_DIGESTS[suite]
    assert len(rows) == count
    assert hashlib.sha1(repr(rows).encode()).hexdigest() == digest


#: figure -> (rows, SHA-1) of the standalone brute-force search's figures.
FIGURE_DIGESTS = {
    "figure1": (35, "b811d4115c93575dc8419aae38001d585bc2cec0"),
    "figure2": (25, "4333a89e013a15c2f3eec39af9096197cb16eec0"),
    "figure2_avx512_ablation": (3, "abf83e2de57edf8c9a4e524153ff6d3e604a4d30"),
}
ABLATION_KERNELS = ("sum_reduction_float", "saxpy", "double_precision_scale")


def _sha1(rows) -> str:
    return hashlib.sha1(repr(rows).encode()).hexdigest()


def test_figure1_reproduces_the_standalone_search():
    result = figure1_dot_product_grid()
    rows = (
        sorted(result.grid.items()),
        result.baseline_factors,
        result.best_factors,
        result.best_speedup,
        result.fraction_better_than_baseline,
    )
    assert result.baseline_factors == (4, 2) and result.best_factors == (8, 8)
    assert result.best_speedup == 2.180425981341313
    count, digest = FIGURE_DIGESTS["figure1"]
    assert len(result.grid) == count
    assert _sha1(rows) == digest


def test_figure2_reproduces_the_standalone_search():
    items = list(figure2_bruteforce_suite().speedups.items())
    assert items[:2] == [
        ("sum_reduction_int", 2.9408814990762733),
        ("sum_reduction_float", 3.6654322746047576),
    ]
    count, digest = FIGURE_DIGESTS["figure2"]
    assert len(items) == count
    assert _sha1(items) == digest


def test_figure2_on_the_ablation_kernels_under_avx512():
    suite = KernelSuite(
        name="ablation",
        kernels=[k for k in llvm_vectorizer_suite() if k.name in ABLATION_KERNELS],
    )
    service = EvaluationService(CompileAndMeasure(machine=avx512_machine()))
    items = list(
        figure2_bruteforce_suite(suite, evaluation_service=service).speedups.items()
    )
    assert items == [
        ("sum_reduction_float", 4.6161434977578475),
        ("saxpy", 1.3253712072304713),
        ("double_precision_scale", 2.859500959692898),
    ]
    count, digest = FIGURE_DIGESTS["figure2_avx512_ablation"]
    assert len(items) == count
    assert _sha1(items) == digest
