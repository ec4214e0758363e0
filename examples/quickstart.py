"""Quickstart: optimize a C loop kernel end-to-end with a pluggable task.

Runs the full pipeline on a small kernel for any registered optimization
task: extract the decision sites, embed them, pick an action per site with
the brute-force oracle (so the example needs no training), apply the task's
transform and report the speed-up over the compiler's own cost model.

    python examples/quickstart.py                        # (VF, IF) pragmas
    python examples/quickstart.py --task polly-tiling    # tile/fusion per nest
    python examples/quickstart.py --task unrolling       # unroll_count pragmas

See ``examples/train_neurovectorizer.py`` for the RL path and
``examples/polybench_with_polly.py`` for training the Polly task.
"""

import argparse

from repro.agents.brute_force import BruteForceAgent
from repro.core.framework import NeuroVectorizer, build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.datasets.motivating import dot_product_kernel
from repro.distributed import EvaluationService
from repro.tasks import available_tasks, resolve_task

USER_SOURCE = """
float prices[4096], weights[4096];
float totals[512][512], updates[512][512];

float weighted_sum() {
    float total = 0;
    for (int i = 0; i < 4096; i++) {
        total += prices[i] * weights[i];
    }
    for (int r = 0; r < 512; r++) {
        for (int c = 0; c < 512; c++) {
            totals[r][c] = totals[r][c] + updates[c][r];
        }
    }
    return total;
}
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--task",
        default="vectorization",
        choices=available_tasks(),
        help="which optimization task decides per site",
    )
    arguments = parser.parse_args()

    task = resolve_task(arguments.task)
    # The embedding vocabulary only needs some representative loops; the
    # motivating kernel is enough for this tiny example.
    embedding = build_embedding_model([dot_product_kernel()])
    service = EvaluationService(CompileAndMeasure())
    agent = BruteForceAgent(evaluation_service=service, task=task)
    framework = NeuroVectorizer(embedding, agent, evaluation_service=service, task=task)

    kernel = LoopKernel(
        name="user_kernel",
        source=USER_SOURCE,
        function_name="weighted_sum",
        suite="user",
    )
    result = framework.optimize_kernel(kernel)

    print(f"=== NeuroVectorizer quickstart ({task.name}) ===")
    print()
    print("Chosen action per decision site:")
    for site in task.decision_sites(kernel):
        action = result.decisions.get(site.index)
        rendered = ", ".join(
            f"{label}={value}" for label, value in zip(task.action_labels, action)
        )
        print(f"  site #{site.index} ({site.description}): {rendered}")
    if result.transformed_source:
        print()
        print("Source with injected pragmas:")
        print(result.transformed_source)
    if result.description:
        print(f"transform       : {result.description}")
    print(f"baseline cycles : {result.baseline_cycles:12.0f}")
    print(f"tuned cycles    : {result.cycles:12.0f}")
    print(f"speedup         : {result.speedup_over_baseline:12.2f}x")
    print(f"reward (eq. 2)  : {result.reward:12.3f}")


if __name__ == "__main__":
    main()
