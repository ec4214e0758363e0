"""Train an RL agent to drive Polly: per-nest tile-size/fusion decisions.

The Figure 8 observation — Polly's tiling and the learned factors compose —
motivated making the polyhedral pass a first-class *optimization task*.
This demo trains the same PPO contextual bandit the paper uses for (VF, IF)
on the ``polly-tiling`` task instead: for every top-level nest of every
PolyBench-like kernel the agent picks a tile size (1 = leave alone) and
whether to run fusion, rewarded by simulated execution-time improvement.

    python examples/polybench_with_polly.py                       # RL on tiling
    python examples/polybench_with_polly.py --task vectorization  # same pipeline, (VF, IF)
    python examples/polybench_with_polly.py --steps 2000          # longer training

After training it reports per-kernel speed-ups of the learned per-nest
decisions against the untransformed baseline, next to the fixed-config
:class:`repro.polly.PollyOptimizer` (Polly's own 32x32 defaults) for
reference.
"""

import argparse

from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets.polybench import polybench_suite
from repro.evaluation import add_polly_columns
from repro.tasks import available_tasks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--task",
        default="polly-tiling",
        choices=available_tasks(),
        help="which optimization task to train",
    )
    parser.add_argument("--steps", type=int, default=600,
                        help="PPO environment steps")
    parser.add_argument("--batch-size", type=int, default=60)
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="evaluation worker processes (0 = serial)")
    arguments = parser.parse_args()

    kernels = list(polybench_suite())
    print(f"training the RL agent on task {arguments.task!r} "
          f"over {len(kernels)} PolyBench kernels ...")
    config = TrainingConfig(
        task=arguments.task,
        rl_total_steps=arguments.steps,
        rl_batch_size=arguments.batch_size,
        learning_rate=arguments.learning_rate,
        seed=arguments.seed,
        workers=arguments.workers,
    )
    framework, artifacts = NeuroVectorizer.train(kernels, config)
    print(f"  iterations: {len(artifacts.history.iterations)}, "
          f"final mean reward: {artifacts.history.final_reward_mean:+.4f}")

    # The learned per-site decisions next to the fixed-configuration pass:
    # one comparison over the framework's plumbing, Polly's column appended.
    comparison = framework.compare_agents(kernels, agents={"learned": framework.agent})
    add_polly_columns(comparison, kernels, framework.pipeline)
    print()
    print(f"{'kernel':<12s} {'learned':>9s} {'fixed polly':>12s}   decisions")
    for kernel in kernels:
        row = comparison.speedups[kernel.name]
        decisions = ", ".join(
            f"#{site}:" + "/".join(str(v) for v in action)
            for site, action in sorted(
                comparison.decisions_for(kernel.name, "learned").items()
            )
        )
        print(f"{kernel.name:<12s} {row['learned']:8.2f}x "
              f"{row['polly']:11.2f}x   {decisions}")

    print()
    print(framework.cache_stats_report().render())
    framework.close()


if __name__ == "__main__":
    main()
