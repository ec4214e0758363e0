"""A pragma task's application prices exactly what its pragma text asks for.

``VectorizationTask.apply`` and ``UnrollingTask.apply`` write
``#pragma clang loop`` lines into the kernel's source as their output, and
price the decision map with ``measure_with_factors`` on the kernel's cached
IR.  The pragma text used to be the pricing path: parse the annotated
source, lower it, analyse it and let each loop's pragma override the
baseline cost model's choice.  That path is kept as :mod:`oracle.measure`,
and here both tasks must match it on ``(cycles, compile_seconds, sorted
factors)`` and on the annotated text, for every LLVM, PolyBench and MiBench
kernel plus 50 synthetic ones, under these decision maps: the empty map, the
all-baseline map, every single-site menu action and five seeded random maps.
"""

import itertools
import random

import pytest

from repro.core.pipeline import CompileAndMeasure
from repro.datasets.llvm_suite import llvm_vectorizer_suite
from repro.datasets.mibench import mibench_suite
from repro.datasets.polybench import polybench_suite
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.tasks import get_task
from oracle import annotate, measure_annotated

KERNELS = [
    *llvm_vectorizer_suite(),
    *polybench_suite(),
    *mibench_suite(),
    *generate_synthetic_dataset(SyntheticDatasetConfig(count=50, seed=0)),
]


def _measurement(result):
    return (result.cycles, result.compile_seconds, sorted(result.factors.items()))


def decision_maps(task, pipeline, kernel):
    """Every distinct map of the identity check for one (task, kernel)."""
    sites = [site.index for site in task.decision_sites(kernel)]
    maps = [{}, {site: task.baseline_action(pipeline, kernel, site) for site in sites}]
    maps += [
        {site: action}
        for site in sites
        for action in itertools.product(*task.menus)
    ]
    for seed in range(5):
        rng = random.Random(seed)
        maps.append({site: tuple(rng.choice(menu) for menu in task.menus) for site in sites})
    distinct = {tuple(sorted(decisions.items())): decisions for decisions in maps}
    return list(distinct.values())


@pytest.mark.parametrize("task_name", ["vectorization", "unrolling"])
def test_apply_matches_the_pragma_text_path(task_name):
    task = get_task(task_name)
    pipeline = CompileAndMeasure()
    checked = 0
    for kernel in KERNELS:
        for decisions in decision_maps(task, pipeline, kernel):
            application = task.apply(pipeline, kernel, decisions)
            annotated = annotate(task_name, kernel, decisions)
            assert application.transformed_source == annotated, (kernel.name, decisions)
            expected = measure_annotated(pipeline, kernel, annotated)
            assert _measurement(application.result) == _measurement(expected), (
                kernel.name,
                decisions,
            )
            checked += 1
    # At least the empty map and one site's every action, per kernel.
    actions = len(list(itertools.product(*task.menus)))
    assert checked >= (1 + actions) * len(KERNELS)
