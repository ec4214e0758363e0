"""PPO training outputs, policies and env rewards, frozen before refactors.

The trainer used to pick between the fused kernel and the autodiff graph
per minibatch and probe its env and policy for optional methods; later a
one-task run stopped having its own env class and unnamed policy bank and
became the one-entry case of ``MultiTaskEnv`` and a task-named bank.  The
literals below are SHA-1 digests of what the code produced at the commit
before each change — every parameter's bytes after training plus the
per-iteration loss and reward curves; a fresh policy's weights and
sampled actions; every reward, info dict, peek and served site of a fixed
env session — so the surviving path is pinned to the same answers.  They
are never regenerated.
"""

import hashlib
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.framework import NeuroVectorizer, TrainingConfig, build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService
from repro.evaluation.figures import _make_training_environment
from repro.rl.env import COMPILE_TIME_PENALTY, MultiTaskEnv, build_samples
from repro.rl.policy import make_policy
from repro.rl.ppo import PPOConfig
from repro.rl.tune import run_experiments
from repro.tasks import resolve_task

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
    # Frozen before the one-task env class and unnamed policy bank went.
    "discrete": "7a43d4df0764d1879115a6155a7d10f40499aaa4",
    "figure/policy=discrete": "96c334ba73bd4df45fd4f9f3ea8abdcb06e3efdb",
    "figure/tasks=('vectorization', 'unrolling')": (
        "763723d3411116cb8c219d282003f1d358b13a6d"
    ),
    "policy/discrete": "8c8d3c5b5ef1eb39d5a0b0bd60843d1ca351a923",
    "policy/continuous1": "1be5b76e84a3fa53449b259efdc563d9d639912b",
    "policy/continuous2": "4a6e860dda818a76ff8614415bdabd25eb9389b7",
    "rewards/one_task": "976e4a114848da5893e4a1410e19a526fd949f92",
    "rewards/joint": "eaac3ad2617702bcec4d98669709dad1abc02315",
}

#: Small PPO settings shared by the ``run_experiments`` digests.
TUNE_CONFIG = PPOConfig(
    learning_rate=1e-3,
    train_batch_size=24,
    minibatch_size=10,
    epochs_per_batch=3,
)

#: A compile-time limit low enough that some actions earn the penalty.
TIGHT_COMPILE_TIME_LIMIT = 2.0


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
        lambda: MultiTaskEnv(
            ["vectorization"],
            {"vectorization": samples},
            evaluation_service=EvaluationService(pipeline),
            seed=0,
        ),
        {"policy": ["continuous1", "continuous2", "discrete"]},
        total_steps=72,
        base_config=TUNE_CONFIG,
    )
    return {
        result.parameters["policy"]: digest(result.policy, result.history)
        for result in results
    }


def figure_grid_digests():
    """The Figure 5/6 env factory: its default (one-task) env and a joint one."""
    make_env = _make_training_environment(6, 0, None)
    digests = {}
    for grid in ({"policy": ["discrete"]}, {"tasks": [("vectorization", "unrolling")]}):
        (result,) = run_experiments(
            make_env, grid, total_steps=48, base_config=TUNE_CONFIG
        )
        digests["figure/" + result.name] = digest(result.policy, result.history)
    return digests


def policy_digest(kind):
    """A fresh policy's weights plus 64 sampled ``act_batch`` outputs."""
    policy = make_policy(kind, 12, seed=4)
    sha = hashlib.sha1()
    for parameter in policy.parameters():
        sha.update(parameter.data.tobytes())
    rows = np.random.default_rng(7).normal(size=(64, 12))
    for output in policy.act_batch(rows):
        sha.update(output.action.tobytes())
        sha.update(repr((output.log_prob, output.value)).encode())
    return sha.hexdigest()


def _site(sample):
    return (sample.kernel.name, sample.loop_index, sample.task_name)


def env_record(sha, env, policy):
    """Feed everything an env answers, in one fixed sequence, into ``sha``.

    Sample order and embeddings, greedy rewards, every menu action's reward
    and info on every sample, a stepped rollout past the epoch boundary
    (with peeks) and one ``next_batch``.  Returns every reward seen.
    """
    sha.update(
        repr([_site(sample) + (sample.observation.tobytes(),) for sample in env.samples])
        .encode()
    )
    sha.update(repr(env.greedy_rewards(policy)).encode())
    requests = [
        (sample, action)
        for sample in env.samples
        for action in env.action_spaces[sample.task_name].all_actions()
    ]
    results = env.evaluate_actions_batch(requests)
    sha.update(repr([(reward, sorted(info.items())) for reward, info in results]).encode())
    rollout = []
    for step in range(2 * len(env.samples) + 1):
        env.reset()
        sample = env.current_sample()
        peek = [_site(entry) for entry in env.peek_upcoming(3)]
        result = env.step(np.array([step % 4, step % 3, step % 2]))
        rollout.append((_site(sample), peek, result.reward, sorted(result.info.items())))
    sha.update(repr(rollout).encode())
    sha.update(repr([_site(sample) for sample in env.next_batch(5)]).encode())
    return [reward for reward, _ in results] + [entry[2] for entry in rollout]


def rewards_digests():
    """Each task alone on a one-task env, then all three on one joint env."""
    suite = kernels()
    pipeline = CompileAndMeasure()
    embedding = build_embedding_model(suite)
    tasks = [resolve_task(name) for name in ALL_TASKS]
    samples = {
        task.name: build_samples(suite, embedding, pipeline, task=task)
        for task in tasks
    }
    one_task, joint = hashlib.sha1(), hashlib.sha1()
    rewards = []
    for group, sha in [([task], one_task) for task in tasks] + [(tasks, joint)]:
        env = MultiTaskEnv(
            group,
            samples,
            evaluation_service=EvaluationService(pipeline),
            compile_time_limit=TIGHT_COMPILE_TIME_LIMIT,
        )
        policy = make_policy(
            "discrete",
            env.observation_dim,
            seed=0,
            spaces={task.name: task.action_space("discrete") for task in group},
        )
        rewards += env_record(sha, env, policy)
    return {
        "rewards/one_task": one_task.hexdigest(),
        "rewards/joint": joint.hexdigest(),
    }, rewards


def test_single_task_training():
    assert single_task_digest() == DIGESTS["single_task"]


def test_joint_training_with_embedding_conditioning():
    assert joint_digest() == DIGESTS["joint"]


def test_fine_tune_of_held_out_task():
    assert fine_tune_digest() == DIGESTS["fine_tune"]


def test_run_experiments_on_a_plain_env():
    assert experiment_digests() == {
        kind: DIGESTS[kind] for kind in ("continuous1", "continuous2", "discrete")
    }


def test_run_experiments_over_the_figure_env_factory():
    digests = figure_grid_digests()
    assert len(digests) == 2
    assert digests == {key: DIGESTS[key] for key in digests}


@pytest.mark.parametrize("kind", ["discrete", "continuous1", "continuous2"])
def test_default_policy_weights_and_samples(kind):
    assert policy_digest(kind) == DIGESTS["policy/" + kind]


def test_env_rewards_under_a_tight_compile_time_limit():
    digests, rewards = rewards_digests()
    assert COMPILE_TIME_PENALTY in rewards  # the limit really bites
    assert digests == {key: DIGESTS[key] for key in digests}
