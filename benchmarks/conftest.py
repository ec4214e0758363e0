"""Shared fixtures for the benchmark harness.

The Figure 7/8/9 benches share a single trained framework (training once per
benchmark session keeps the harness runtime reasonable while preserving the
paper's methodology: train on the synthetic corpus, evaluate frozen agents on
held-out suites).
"""

from __future__ import annotations

import pytest

from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets.llvm_suite import llvm_vectorizer_suite, test_benchmarks
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.evaluation import ComparisonRunner, fit_supervised_agents


#: Scaled-down but shape-preserving training budget for the benches.
TRAIN_KERNEL_COUNT = 120
RL_STEPS = 4000
RL_BATCH = 250
LEARNING_RATE = 5e-4


@pytest.fixture(scope="session")
def trained_agents():
    """``(framework, supervised)``: the trained RL framework and the NNS /
    decision-tree agents fitted on brute-force labels of its training set."""
    kernels = list(
        generate_synthetic_dataset(SyntheticDatasetConfig(count=TRAIN_KERNEL_COUNT, seed=0))
    )
    held_out = set(test_benchmarks().names())
    kernels.extend(k for k in llvm_vectorizer_suite() if k.name not in held_out)
    framework, _ = NeuroVectorizer.train(
        kernels,
        TrainingConfig(
            rl_total_steps=RL_STEPS,
            rl_batch_size=RL_BATCH,
            learning_rate=LEARNING_RATE,
            pretrain_epochs=1,
            seed=0,
        ),
    )
    runner = ComparisonRunner(
        evaluation_service=framework.evaluation_service,
        embedding_model=framework.embedding_model,
    )
    yield framework, fit_supervised_agents(runner, kernels, seed=0)
    framework.close()
