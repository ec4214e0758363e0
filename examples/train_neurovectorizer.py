"""Train the RL vectorizer and evaluate it on held-out benchmarks.

Reproduces a scaled-down version of the paper's main experiment (Figure 7):

1. generate a synthetic loop corpus (§3.2),
2. pretrain the code2vec embedding and train a PPO contextual bandit on the
   corpus with the execution-time-improvement reward (Eq. 2),
3. evaluate the frozen policy on the 12 held-out test benchmarks against
   random search, Polly, NNS, decision trees and brute force.

Reward evaluation can be sharded across worker processes and persisted to a
cross-run on-disk store:

    python examples/train_neurovectorizer.py --workers 4 --cache-dir .reward-store

A second invocation with the same ``--cache-dir`` warm-starts from disk and
recompiles nothing it has already measured.

Run with:  python examples/train_neurovectorizer.py  [--steps 4000] [--kernels 120]
"""

import argparse

from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets.llvm_suite import llvm_vectorizer_suite, test_benchmarks
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.evaluation import (
    ComparisonRunner,
    figure7_main_comparison,
    fit_supervised_agents,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=4000,
                        help="PPO environment steps (compilations)")
    parser.add_argument("--kernels", type=int, default=120,
                        help="number of synthetic training kernels")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="evaluation worker processes (0 = serial in-process)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="directory of the persistent reward store "
                             "(shared across runs; omit for memory-only)")
    arguments = parser.parse_args()

    print(f"generating {arguments.kernels} synthetic training kernels ...")
    kernels = list(
        generate_synthetic_dataset(
            SyntheticDatasetConfig(count=arguments.kernels, seed=arguments.seed)
        )
    )
    held_out = set(test_benchmarks().names())
    kernels.extend(k for k in llvm_vectorizer_suite() if k.name not in held_out)

    print(f"training (pretraining + {arguments.steps} PPO steps) ...")
    framework, artifacts = NeuroVectorizer.train(
        kernels,
        TrainingConfig(
            rl_total_steps=arguments.steps,
            rl_batch_size=250,
            learning_rate=5e-4,
            pretrain_epochs=1,
            seed=arguments.seed,
            workers=arguments.workers,
            cache_dir=arguments.cache_dir,
        ),
    )
    with framework:
        if arguments.workers or arguments.cache_dir:
            print(
                f"evaluation service: {arguments.workers} worker(s), "
                f"store={arguments.cache_dir or 'memory-only'}, "
                f"{framework.reward_cache.preloaded} "
                "measurement(s) warm-started from disk"
            )
        curve = [round(value, 3) for value in artifacts.history.reward_curve()]
        print(f"reward-mean curve over training: {curve}")

        print("fitting NNS / decision tree on brute-force labels ...")
        runner = ComparisonRunner(
            evaluation_service=framework.evaluation_service,
            embedding_model=framework.embedding_model,
        )
        supervised = fit_supervised_agents(runner, kernels, seed=arguments.seed)

        print("evaluating on the 12 held-out test benchmarks ...")
        figure = figure7_main_comparison(framework, supervised, seed=arguments.seed)
        print()
        print(figure.format_table().render())
        print()
        for method in figure.comparison.methods:
            print(f"  average {method:14s}: {figure.average(method):5.2f}x")
        rl_vs_brute = figure.average("rl") / figure.average("brute_force")
        print(f"\nRL captures {rl_vs_brute * 100:.0f}% of the brute-force oracle's gain.")

        print()
        print(framework.cache_stats_report().render())
        print()
        print(framework.service_stats_report().render())


if __name__ == "__main__":
    main()
