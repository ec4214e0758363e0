"""Joint multi-task training vs per-task training: wall-clock and reward.

The multi-task pitch: one shared-trunk policy with task-conditioned heads
amortizes embedding/trunk learning across tasks, so training N tasks
jointly for S steps costs roughly one S-step run — not N of them — while
each task still converges on its own reward signal.

Expected shape: the joint run consumes one step budget where the per-task
runs consume one each (over one environment and one shared cache), and its
per-task final rewards land in the same range as the dedicated single-task
runs.  Both walls are well under a second once the process-wide frontend
memo is warm, so the seconds are printed, not asserted.
"""

from __future__ import annotations

import time

from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset

JOINT_TASKS = ("vectorization", "unrolling")
RL_STEPS = 240
RL_BATCH = 60


def _train(tasks=None, task=None):
    kernels = list(
        generate_synthetic_dataset(SyntheticDatasetConfig(count=12, seed=2))
    )
    config = TrainingConfig(
        tasks=list(tasks) if tasks else None,
        task=task or "vectorization",
        rl_total_steps=RL_STEPS,
        rl_batch_size=RL_BATCH,
        learning_rate=5e-4,
        pretrain_epochs=1,
        pretrain_samples=6,
        seed=2,
    )
    start = time.perf_counter()
    framework, artifacts = NeuroVectorizer.train(kernels, config)
    elapsed = time.perf_counter() - start
    framework.close()
    return elapsed, artifacts.history


def test_joint_vs_per_task_training(benchmark):
    per_task_seconds = {}
    per_task_rewards = {}
    per_task_steps = {}
    for name in JOINT_TASKS:
        elapsed, history = _train(task=name)
        per_task_seconds[name] = elapsed
        per_task_rewards[name] = history.final_reward_mean
        per_task_steps[name] = history.steps()[-1]

    def run_joint():
        return _train(tasks=JOINT_TASKS)

    joint_seconds, joint_history = benchmark.pedantic(
        run_joint, iterations=1, rounds=1
    )
    joint_finals = joint_history.per_task_final_rewards()

    print()
    for name in JOINT_TASKS:
        print(
            f"{name:>14}: dedicated {per_task_seconds[name]:.2f}s "
            f"(final reward {per_task_rewards[name]:+.3f})  |  "
            f"joint head final reward {joint_finals[name]:+.3f}"
        )
    summed = sum(per_task_seconds.values())
    print(f"joint run: {joint_seconds:.2f}s vs {summed:.2f}s summed per-task runs")

    # The joint run trains every task within one step budget where the
    # dedicated runs spend one each (the whole amortization win).
    assert joint_history.steps()[-1] == RL_STEPS
    assert sum(per_task_steps.values()) == len(JOINT_TASKS) * RL_STEPS
    # Every task trained: per-task reward rows exist and are finite.
    assert set(joint_finals) == set(JOINT_TASKS)
    for name, value in joint_finals.items():
        assert value == value, f"task {name} reward is NaN"

    benchmark.extra_info["joint_seconds"] = round(joint_seconds, 3)
    benchmark.extra_info["per_task_seconds_sum"] = round(summed, 3)
    benchmark.extra_info["joint_final_rewards"] = {
        name: round(value, 4) for name, value in joint_finals.items()
    }
    benchmark.extra_info["per_task_final_rewards"] = {
        name: round(value, 4) for name, value in per_task_rewards.items()
    }
