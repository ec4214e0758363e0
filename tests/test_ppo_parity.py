"""PPO training outputs, frozen before the update path became one kernel.

The trainer used to pick between the fused kernel and the autodiff graph
per minibatch and probe its env and policy for optional methods.  The
literals below are SHA-1 digests of what four training runs produced at
the commit before that selection was deleted — every parameter's bytes
after training plus the per-iteration loss and reward curves — so the
surviving path is pinned to the same answers.  They are never
regenerated.
"""

import hashlib
from collections import OrderedDict

from repro.core.framework import NeuroVectorizer, TrainingConfig, build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.rl.env import VectorizationEnv, build_samples
from repro.rl.ppo import PPOConfig
from repro.rl.tune import run_experiments

ALL_TASKS = ("vectorization", "polly-tiling", "unrolling")

SOURCES = OrderedDict(
    dot=(
        "dot",
        "float a[2048], b[2048];\n"
        "float dot() { float s = 0; for (int i = 0; i < 2048; i++) "
        "s += a[i] * b[i]; return s; }",
    ),
    scale=(
        "scale",
        "float x[2048], y[2048];\n"
        "void scale(float alpha) { for (int i = 0; i < 2048; i++) "
        "y[i] = alpha * x[i]; }",
    ),
    saxpy=(
        "saxpy",
        "float u[2048], v[2048];\n"
        "void saxpy(float alpha) { for (int i = 0; i < 2048; i++) "
        "v[i] = alpha * u[i] + v[i]; }",
    ),
    shift=(
        "shift",
        "float p[1024][64], q[1024][64];\n"
        "void shift() { for (int i = 0; i < 1024; i++) "
        "for (int j = 0; j < 64; j++) q[i][j] = p[i][j] + 1.0f; }",
    ),
)

#: Digests computed on a clean export of the parent commit.
DIGESTS = {
    "single_task": "56e9ce058ac4a509dbd18514ac1b6f7aaacd5a12",
    "joint": "eb60c805bd57c118485ef1082d56a4525ef89390",
    "fine_tune": "6b2dc3335a840312e68a0ff2416cec9cf9e72887",
    "continuous1": "fb7d55daa155cbb11a2eaa8e4494c1ac45d7665b",
    "continuous2": "6eb9666ee558163bb4b94d6b6cf954adce1d2127",
}


def kernels():
    return [
        LoopKernel(name=name, source=source, function_name=function_name)
        for name, (function_name, source) in SOURCES.items()
    ]


def digest(policy, history):
    """SHA-1 over the trained weights and every iteration's curves."""
    sha = hashlib.sha1()
    for parameter in policy.parameters():
        sha.update(parameter.data.tobytes())
    curves = [
        (
            stats.steps_total,
            stats.reward_mean,
            stats.reward_min,
            stats.reward_max,
            stats.total_loss,
            stats.policy_loss,
            stats.value_loss,
            stats.entropy,
            sorted(stats.per_task_reward_mean.items()),
            sorted(stats.per_task_steps.items()),
        )
        for stats in history.iterations
    ]
    sha.update(repr(curves).encode())
    return sha.hexdigest()


def train(**config):
    framework, artifacts = NeuroVectorizer.train(
        kernels(),
        TrainingConfig(learning_rate=1e-3, pretrain_epochs=0, seed=0, **config),
    )
    return framework, artifacts.history


def single_task_digest():
    framework, history = train(rl_total_steps=96, rl_batch_size=48)
    with framework:
        return digest(framework.agent.policy, history)


def joint_digest():
    framework, history = train(
        tasks=list(ALL_TASKS), rl_total_steps=96, rl_batch_size=48
    )
    with framework:
        return digest(framework.agent.policy, history)


def fine_tune_digest():
    framework, _ = train(
        tasks=list(ALL_TASKS),
        holdout_task="polly-tiling",
        rl_total_steps=48,
        rl_batch_size=24,
    )
    with framework:
        history = framework.fine_tune(kernels(), total_steps=36, batch_size=12)
        return digest(framework.agent.policy, history)


def experiment_digests():
    pipeline = CompileAndMeasure()
    suite = kernels()
    samples = build_samples(suite, build_embedding_model(suite), pipeline)
    results = run_experiments(
        lambda: VectorizationEnv(samples, pipeline=pipeline, seed=0),
        {"policy": ["continuous1", "continuous2"]},
        total_steps=72,
        base_config=PPOConfig(
            learning_rate=1e-3,
            train_batch_size=24,
            minibatch_size=10,
            epochs_per_batch=3,
        ),
    )
    return {
        result.parameters["policy"]: digest(result.policy, result.history)
        for result in results
    }


def test_single_task_training():
    assert single_task_digest() == DIGESTS["single_task"]


def test_joint_training_with_embedding_conditioning():
    assert joint_digest() == DIGESTS["joint"]


def test_fine_tune_of_held_out_task():
    assert fine_tune_digest() == DIGESTS["fine_tune"]


def test_run_experiments_on_a_plain_env():
    assert experiment_digests() == {
        kind: DIGESTS[kind] for kind in ("continuous1", "continuous2")
    }
