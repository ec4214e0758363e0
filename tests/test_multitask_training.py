"""Multi-task joint training: one shared-trunk policy, task-conditioned heads.

Pins the joint-training contract end to end:

* a ``MultiTaskPolicy`` is a shared trunk plus one head bank per task, and
  a single-task policy is its one-bank special case, named for its task
  (seed-identical weights and sampling),
* joint runs are seeded-deterministic, and ``workers=2`` evaluation is
  byte-identical to serial through ``NeuroVectorizer.train``,
* updating on one task's minibatches leaves every other task's head bank
  untouched (the trunk learns jointly, the heads stay isolated),
* the single-task path (``TrainingConfig(task=...)``) still trains exactly
  as the pre-joint (seed) wiring did,
* the tune fixes: policies are shaped by the env's task menus, the grid
  sweeps ``tasks=[...]``, and the empty/malformed-grid errors are clear.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from oracle import evaluate
from repro.core.framework import (
    NeuroVectorizer,
    TrainingConfig,
    build_embedding_model,
)
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService
from repro.evaluation.figures import figure_convergence
from repro.rl.env import MultiTaskEnv, build_samples
from repro.rl.policy import MultiTaskPolicy, make_policy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import ContinuousPairSpace, DiscreteFactorSpace
from repro.rl.tune import best_experiment, grid_search, run_experiments
from repro.tasks import get_task, resolve_task

JOINT_TASKS = ("vectorization", "unrolling")

REDUCTION_SOURCE = """
float a[2048], b[2048];
float work() {
    float s = 0;
    for (int i = 0; i < 2048; i++) {
        s += a[i] * b[i];
    }
    return s;
}
"""

STREAM_SOURCE = """
float x[2048], y[2048];
void scale(float alpha) {
    for (int i = 0; i < 2048; i++) {
        y[i] = alpha * x[i];
    }
}
"""


def joint_kernels():
    return [
        LoopKernel(name="work", source=REDUCTION_SOURCE, function_name="work"),
        LoopKernel(name="stream", source=STREAM_SOURCE, function_name="scale"),
    ]


def joint_config(**overrides) -> TrainingConfig:
    values = dict(
        tasks=list(JOINT_TASKS),
        rl_total_steps=48,
        rl_batch_size=24,
        learning_rate=1e-3,
        pretrain_epochs=0,
        seed=0,
    )
    values.update(overrides)
    return TrainingConfig(**values)


def history_fingerprint(history):
    return [
        (
            stats.steps_total,
            stats.reward_mean,
            tuple(sorted(stats.per_task_reward_mean.items())),
        )
        for stats in history.iterations
    ]


def parameter_snapshot(module):
    return [parameter.data.copy() for parameter in module.parameters()]


def snapshots_equal(before, after) -> bool:
    return all(np.array_equal(b, a) for b, a in zip(before, after))


# ---------------------------------------------------------------------------
# Policy: shared trunk, per-task banks, one-head special case
# ---------------------------------------------------------------------------


class TestMultiTaskPolicy:
    def two_task_spaces(self):
        return OrderedDict(
            (name, get_task(name).action_space("discrete")) for name in JOINT_TASKS
        )

    def test_single_task_policies_are_one_bank_special_cases(self):
        for kind in ("discrete", "continuous1", "continuous2"):
            policy = make_policy(kind, 8)
            assert isinstance(policy, MultiTaskPolicy)
            assert policy.task_names == ["vectorization"]

    def test_one_bank_policy_weights_match_named_construction(self):
        # The same seed builds byte-identical weights whether the default
        # task's bank is implied or spelled out as a single entry.
        legacy = make_policy("discrete", 12, seed=3)
        named = make_policy(
            "discrete", 12, seed=3,
            spaces={"vectorization": DiscreteFactorSpace()},
        )
        legacy_state = legacy.state_dict()
        named_state = named.state_dict()
        assert legacy_state.keys() == named_state.keys()
        for key in legacy_state:
            assert np.array_equal(legacy_state[key], named_state[key])

    def test_act_routes_to_the_tasks_heads(self):
        policy = make_policy("discrete", 10, spaces=self.two_task_spaces())
        observation = np.zeros(10)
        vec = policy.act(observation, deterministic=True, task="vectorization")
        unroll = policy.act(observation, deterministic=True, task="unrolling")
        assert vec.action.shape == (2,)  # (VF index, IF index)
        assert unroll.action.shape == (1,)  # one unroll-factor index

    def test_multi_task_policy_requires_a_task_id(self):
        policy = make_policy("discrete", 10, spaces=self.two_task_spaces())
        with pytest.raises(ValueError, match="task"):
            policy.act(np.zeros(10))
        with pytest.raises(ValueError, match="polly"):
            policy.act(np.zeros(10), task="polly-tiling")

    def test_single_task_policy_serves_only_its_task(self):
        # The one-bank special case answers its own task's id and requests
        # that name no task; another task's id is refused, not decoded
        # with this bank's menus.
        policy = make_policy("discrete", 10, seed=0)
        tagged = policy.act(np.zeros(10), deterministic=True, task="vectorization")
        plain = policy.act(np.zeros(10), deterministic=True)
        assert np.array_equal(tagged.action, plain.action)
        with pytest.raises(ValueError, match="unrolling"):
            policy.act(np.zeros(10), task="unrolling")

    def test_policy_agent_over_joint_policy_needs_a_task(self):
        # Regression: an unpinned agent over a multi-bank policy must fail
        # at construction, not on its first select_factors call.
        from repro.agents.policy_agent import PolicyAgent

        policy = make_policy("discrete", 10, spaces=self.two_task_spaces())
        with pytest.raises(ValueError, match="for_task"):
            PolicyAgent(policy)
        agent = PolicyAgent(policy, task="unrolling")
        decision = agent.for_task("vectorization").select_factors(np.zeros(10))
        vec = get_task("vectorization")
        assert decision.as_tuple()[0] in vec.menus[0]

    def test_named_single_task_policy_rejects_other_tasks(self):
        policy = make_policy(
            "discrete", 10,
            spaces={"unrolling": get_task("unrolling").action_space("discrete")},
        )
        with pytest.raises(ValueError, match="vectorization"):
            policy.act(np.zeros(10), task="vectorization")

    def test_evaluate_reads_only_the_tasks_columns(self):
        policy = make_policy("discrete", 6, spaces=self.two_task_spaces())
        observations = np.zeros((4, 6))
        # Joint batches pad to the widest arity; the unrolling bank must
        # only read its own leading column.
        padded = np.zeros((4, 2))
        log_probs, entropy, values = evaluate(
            policy, observations, padded, task="unrolling"
        )
        assert log_probs.shape == (4,)
        assert values.shape == (4,)

    def test_make_policy_rejects_mixed_space_kinds(self):
        with pytest.raises(ValueError, match="continuous2"):
            make_policy(
                "continuous2", 8,
                spaces={"vectorization": DiscreteFactorSpace()},
            )
        make_policy("continuous2", 8, spaces={"vectorization": ContinuousPairSpace()})


# ---------------------------------------------------------------------------
# Environment: interleaving, tagging, per-task reward routing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def joint_env_parts():
    kernels = joint_kernels()
    pipeline = CompileAndMeasure()
    embedding = build_embedding_model(kernels)
    tasks = [resolve_task(name) for name in JOINT_TASKS]
    samples = {
        task.name: build_samples(kernels, embedding, pipeline, task=task)
        for task in tasks
    }
    return kernels, pipeline, tasks, samples


class TestMultiTaskEnv:
    def test_interleaves_tasks_round_robin_first_epoch(self, joint_env_parts):
        _, pipeline, tasks, samples = joint_env_parts
        env = MultiTaskEnv(tasks, samples, evaluation_service=EvaluationService(pipeline), seed=0)
        seen = []
        for _ in range(4):
            env.reset()
            seen.append(env.current_sample().task_name)
            env.current_sample()  # leaves the episode open; no measuring
            env._current = None
        assert seen == ["vectorization", "unrolling", "vectorization", "unrolling"]

    def test_step_routes_rewards_through_the_right_task(self, joint_env_parts):
        _, pipeline, tasks, samples = joint_env_parts
        env = MultiTaskEnv(tasks, samples, evaluation_service=EvaluationService(pipeline), seed=0)
        env.reset()
        assert env.current_sample().task_name == "vectorization"
        result = env.step((0, 0))  # scalar (VF=1, IF=1)
        assert {"vf", "interleave"} <= set(result.info)
        env.reset()
        assert env.current_sample().task_name == "unrolling"
        result = env.step((0,))  # unroll_count(1)
        assert "unroll" in result.info and "vf" not in result.info

    def test_cache_keys_shard_per_task(self, joint_env_parts):
        _, pipeline, tasks, samples = joint_env_parts
        env = MultiTaskEnv(tasks, samples, evaluation_service=EvaluationService(pipeline), seed=0)
        requests = []
        for sample in env.samples:
            arity = len(env.tasks[sample.task_name].menus)
            requests.append((sample, (1,) * arity))
        env.evaluate_actions_batch(requests)
        task_tags = {key.task for key in env.evaluation_service.cache._entries}
        assert set(JOINT_TASKS) <= task_tags

    def test_duplicate_or_missing_tasks_rejected(self, joint_env_parts):
        _, pipeline, tasks, samples = joint_env_parts
        with pytest.raises(ValueError, match="duplicate"):
            MultiTaskEnv(
                ["vectorization", "vectorization"],
                samples,
                evaluation_service=EvaluationService(pipeline),
            )
        with pytest.raises(ValueError, match="samples"):
            MultiTaskEnv(
                ["vectorization", "polly-tiling"],
                samples,
                evaluation_service=EvaluationService(pipeline),
            )

    def test_trainer_distributes_policy_spaces_to_lanes(self, joint_env_parts):
        _, pipeline, tasks, samples = joint_env_parts
        env = MultiTaskEnv(tasks, samples, evaluation_service=EvaluationService(pipeline), seed=0)
        policy = make_policy(
            "discrete",
            env.observation_dim,
            spaces=OrderedDict(
                (task.name, task.action_space("discrete")) for task in tasks
            ),
        )
        PPOTrainer(env, policy, PPOConfig())
        for name, space in env.action_spaces.items():
            assert space.menus == get_task(name).menus

    def test_single_bank_for_wrong_task_rejected(self, joint_env_parts):
        # Regression: a one-task env must not silently adopt a bank named
        # for a *different* task.
        _, pipeline, tasks, samples = joint_env_parts
        env = MultiTaskEnv(
            ["vectorization"],
            {"vectorization": samples["vectorization"]},
            evaluation_service=EvaluationService(pipeline),
            seed=0,
        )
        unrolling_policy = make_policy(
            "discrete", env.observation_dim,
            spaces={"unrolling": get_task("unrolling").action_space("discrete")},
        )
        with pytest.raises(ValueError, match="unrolling"):
            PPOTrainer(env, unrolling_policy, PPOConfig())
        default_policy = make_policy("discrete", env.observation_dim, seed=0)
        PPOTrainer(env, default_policy, PPOConfig())  # its own task: accepted

    def test_multi_task_policy_on_single_task_env_trains_only_that_bank(
        self, joint_env_parts
    ):
        # A policy with more banks than the env has tasks (fine_tune's
        # shape) trains the env's task's bank and the trunk; every other
        # bank keeps its exact bytes.
        _, pipeline, tasks, samples = joint_env_parts
        env = MultiTaskEnv(
            ["vectorization"], samples, evaluation_service=EvaluationService(pipeline), seed=0
        )
        policy = make_policy(
            "discrete", env.observation_dim,
            spaces=OrderedDict(
                (task.name, task.action_space("discrete")) for task in tasks
            ),
            conditioning="banks",
        )
        trunk_before = parameter_snapshot(policy.trunk)
        vec_before = parameter_snapshot(policy.task_heads["vectorization"])
        unroll_before = parameter_snapshot(policy.task_heads["unrolling"])
        history = PPOTrainer(
            env, policy, PPOConfig(learning_rate=1e-2, train_batch_size=8,
                                   minibatch_size=4, epochs_per_batch=2),
        ).train(16, batch_size=8)
        assert set(history.task_names()) == {"vectorization"}
        assert not snapshots_equal(trunk_before, parameter_snapshot(policy.trunk))
        assert not snapshots_equal(
            vec_before, parameter_snapshot(policy.task_heads["vectorization"])
        )
        assert snapshots_equal(
            unroll_before, parameter_snapshot(policy.task_heads["unrolling"])
        )

    def test_named_bank_for_wrong_task_on_plain_env_rejected(self, joint_env_parts):
        # Regression: a single bank *named* for another task must not have
        # its space silently assigned to a plain one-task env running a
        # different task — same arity would decode as silent garbage.
        _, pipeline, tasks, samples = joint_env_parts
        env = MultiTaskEnv(
            ["unrolling"], samples, evaluation_service=EvaluationService(pipeline), seed=0
        )
        same_arity = get_task("unrolling").action_space("discrete")
        mismatched = make_policy(
            "discrete", env.observation_dim, spaces={"vectorization": same_arity}
        )
        with pytest.raises(ValueError, match="vectorization"):
            PPOTrainer(env, mismatched, PPOConfig())


# ---------------------------------------------------------------------------
# Joint training end to end
# ---------------------------------------------------------------------------


class TestJointTraining:
    @pytest.fixture(scope="class")
    def trained(self):
        kernels = joint_kernels()
        framework, artifacts = NeuroVectorizer.train(kernels, joint_config())
        yield framework, artifacts, kernels
        framework.close()

    def test_reports_per_task_reward_means(self, trained):
        _, artifacts, _ = trained
        for stats in artifacts.history.iterations:
            assert set(stats.per_task_reward_mean) == set(JOINT_TASKS)
            assert set(stats.per_task_steps) == set(JOINT_TASKS)
            weighted = sum(
                stats.per_task_reward_mean[name] * stats.per_task_steps[name]
                for name in stats.per_task_reward_mean
            ) / sum(stats.per_task_steps.values())
            assert weighted == pytest.approx(stats.reward_mean)
        assert set(artifacts.history.task_names()) == set(JOINT_TASKS)
        assert set(artifacts.samples_by_task) == set(JOINT_TASKS)

    def test_seeded_determinism(self, trained):
        _, artifacts, kernels = trained
        framework_2, artifacts_2 = NeuroVectorizer.train(kernels, joint_config())
        try:
            assert history_fingerprint(artifacts_2.history) == history_fingerprint(
                artifacts.history
            )
        finally:
            framework_2.close()

    def test_compare_agents_populated_for_every_trained_task(self, trained):
        # The acceptance bar: one joint policy, one populated table per
        # task, baseline pinned at exactly 1.0.
        framework, _, kernels = trained
        comparisons = framework.compare_all_tasks(kernels)
        assert list(comparisons) == list(JOINT_TASKS)
        for name, comparison in comparisons.items():
            assert comparison.task == name
            assert comparison.methods == ["baseline", "random", "brute_force", "rl"]
            assert set(comparison.speedups) == {"work", "stream"}
            for row in comparison.speedups.values():
                assert set(row) == set(comparison.methods)
                assert row["baseline"] == pytest.approx(1.0)
                for value in row.values():
                    assert value == value and value > 0
            assert name in comparison.summary_table().render()

    def test_optimize_kernel_per_task(self, trained):
        framework, _, kernels = trained
        vec = framework.optimize_kernel(kernels[1])  # primary task
        unroll = framework.optimize_kernel(kernels[1], task="unrolling")
        assert vec.task == "vectorization"
        assert unroll.task == "unrolling"
        assert "unroll_count" in unroll.transformed_source
        with pytest.raises(ValueError, match="trained"):
            framework.optimize_kernel(kernels[1], task="polly-tiling")

    def test_compare_all_tasks_repins_explicit_agents(self, trained):
        # Regression: an explicit agents mapping containing the (primary-
        # task-pinned) framework agent must be re-pinned per table, not
        # rejected by the runner's task check on the second task.
        framework, _, kernels = trained
        comparisons = framework.compare_all_tasks(
            kernels[:1], agents={"rl": framework.agent}
        )
        assert list(comparisons) == list(JOINT_TASKS)
        for comparison in comparisons.values():
            assert comparison.methods == ["rl"]
            assert comparison.speedups["work"]["rl"] > 0

    def test_workers_2_byte_identical_to_serial(self):
        # The acceptance bar: the joint run's evaluation sharded over two
        # worker processes changes nothing observable.
        kernels = joint_kernels()

        def run(workers):
            config = joint_config(rl_total_steps=24, rl_batch_size=12, seed=3,
                                  workers=workers)
            framework, artifacts = NeuroVectorizer.train(kernels, config)
            try:
                decisions = {
                    name: framework.decide_sites(kernels[0], task=name)
                    for name in JOINT_TASKS
                }
            finally:
                framework.close()
            return history_fingerprint(artifacts.history), decisions

        assert run(0) == run(2)

    def test_per_task_head_isolation(self, joint_env_parts):
        # Updating on one task's minibatches must leave the other task's
        # head bank byte-identical (only trunk + that task's bank move).
        # Specifically a *banks* property: the embedding-conditioned
        # default shares a head stack, so pin conditioning="banks".
        _, pipeline, tasks, samples = joint_env_parts
        env = MultiTaskEnv(tasks, samples, evaluation_service=EvaluationService(pipeline), seed=0)
        policy = make_policy(
            "discrete", env.observation_dim,
            spaces=OrderedDict(
                (task.name, task.action_space("discrete")) for task in tasks
            ),
            conditioning="banks",
        )
        trainer = PPOTrainer(
            env, policy, PPOConfig(learning_rate=1e-2, minibatch_size=8)
        )
        trunk_before = parameter_snapshot(policy.trunk)
        vec_before = parameter_snapshot(policy.task_heads["vectorization"])
        unroll_before = parameter_snapshot(policy.task_heads["unrolling"])

        batch = 16
        rng = np.random.default_rng(0)
        observations = rng.normal(size=(batch, env.observation_dim))
        actions = np.zeros((batch, 2))
        log_probs = np.full(batch, -1.0)
        rewards = rng.normal(size=batch)
        values = np.zeros(batch)
        trainer.update(
            observations, actions, log_probs, rewards, values,
            task_names=["vectorization"] * batch,
        )

        assert not snapshots_equal(trunk_before, parameter_snapshot(policy.trunk))
        assert not snapshots_equal(
            vec_before, parameter_snapshot(policy.task_heads["vectorization"])
        )
        assert snapshots_equal(
            unroll_before, parameter_snapshot(policy.task_heads["unrolling"])
        )

    def test_tasks_accepts_task_objects_and_unregistered_plugins(self):
        # Regression: TrainingConfig(tasks=[...]) must accept task
        # *objects* — including unregistered custom plug-ins — exactly as
        # the single-task task= shim does, not stringify them.
        class DoublingUnroll(get_task("unrolling").__class__):
            name = "doubling-unroll"

        kernels = joint_kernels()
        config = joint_config(
            tasks=[get_task("vectorization"), DoublingUnroll()],
            rl_total_steps=12, rl_batch_size=6,
        )
        assert [task.name for task in config.resolved_tasks()] == [
            "vectorization", "doubling-unroll",
        ]
        framework, artifacts = NeuroVectorizer.train(kernels, config)
        try:
            assert set(artifacts.history.task_names()) == {
                "vectorization", "doubling-unroll",
            }
        finally:
            framework.close()
        with pytest.raises(ValueError, match="duplicate"):
            joint_config(tasks=["unrolling", get_task("unrolling")]).resolved_tasks()

    def test_single_task_config_trains_identically_to_seed_wiring(self):
        # TrainingConfig(task=...) must remain byte-identical to the
        # single-task stage-2 wiring spelled out by hand: a one-task env +
        # a policy over the task's menus + PPOTrainer.
        kernels = joint_kernels()
        config = TrainingConfig(
            task="vectorization", rl_total_steps=24, rl_batch_size=12,
            learning_rate=1e-3, pretrain_epochs=0, seed=5,
        )
        framework, artifacts = NeuroVectorizer.train(kernels, config)
        try:
            new_curve = artifacts.history.reward_curve()
            new_decisions = framework.decide_sites(kernels[0])
        finally:
            framework.close()

        task = resolve_task("vectorization")
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels, config.embedding)
        samples = build_samples(kernels, embedding, pipeline, task=task)
        env = MultiTaskEnv(
            [task], {task.name: samples}, evaluation_service=EvaluationService(pipeline), seed=5
        )
        policy = make_policy(
            "discrete", env.observation_dim, seed=5,
            spaces={task.name: task.action_space("discrete")},
        )
        trainer = PPOTrainer(
            env, policy,
            PPOConfig(learning_rate=1e-3, train_batch_size=12),
        )
        reference = trainer.train(24, batch_size=12)
        assert new_curve == reference.reward_curve()

        from repro.agents.policy_agent import PolicyAgent

        reference_agent = PolicyAgent(policy)
        reference_decisions = {}
        for site in task.decision_sites(kernels[0]):
            observation = task.observation_features(site, embedding)
            chosen = reference_agent.select_factors(observation)
            reference_decisions[site.index] = chosen.as_tuple()
        assert new_decisions == reference_decisions


# ---------------------------------------------------------------------------
# Tune: task-aware sweeps and guard rails
# ---------------------------------------------------------------------------


class TestTune:
    @pytest.fixture(scope="class")
    def env_factory(self):
        kernels = joint_kernels()
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        tasks = {name: resolve_task(name) for name in JOINT_TASKS}
        samples = {
            name: build_samples(kernels, embedding, pipeline, task=task)
            for name, task in tasks.items()
        }

        def make_env(tasks=None):
            return MultiTaskEnv(
                [resolve_task(name) for name in tasks or ("unrolling",)],
                samples,
                evaluation_service=EvaluationService(pipeline),
                seed=0,
            )

        return make_env

    def test_policies_are_shaped_by_the_envs_task(self, env_factory):
        # The regression this PR fixes: sweeping a non-default task used to
        # silently build (VF, IF)-shaped policies.
        results = run_experiments(
            env_factory, {"policy": ["discrete", "continuous2"]}, total_steps=8,
            base_config=PPOConfig(train_batch_size=8, minibatch_size=8,
                                  epochs_per_batch=1),
        )
        unrolling = get_task("unrolling")
        for result in results:
            assert result.policy is not None
            assert result.policy.space_for("unrolling").menus == unrolling.menus

    def test_grid_sweeps_task_combinations(self, env_factory):
        results = run_experiments(
            env_factory,
            {"tasks": [("unrolling",), ("vectorization", "unrolling")]},
            total_steps=8,
            base_config=PPOConfig(train_batch_size=8, minibatch_size=8,
                                  epochs_per_batch=1),
        )
        assert len(results) == 2
        single, joint = results
        assert set(single.history.task_names()) == {"unrolling"}
        assert set(joint.history.task_names()) == set(JOINT_TASKS)
        assert set(joint.policy.task_names) == set(JOINT_TASKS)
        best_experiment(results)  # non-empty: picks one without raising

    def test_string_task_candidates_are_single_tasks(self, env_factory):
        # Regression: {"tasks": ["vectorization", "unrolling"]} sweeps two
        # *single-task* configurations — a bare-string candidate must not
        # be exploded into per-character task names.
        results = run_experiments(
            env_factory,
            {"tasks": ["unrolling", ("vectorization", "unrolling")]},
            total_steps=8,
            base_config=PPOConfig(train_batch_size=8, minibatch_size=8,
                                  epochs_per_batch=1),
        )
        single, joint = results
        assert set(single.history.task_names()) == {"unrolling"}
        assert set(joint.history.task_names()) == set(JOINT_TASKS)

    def test_conditioning_axis_applies_to_single_task_configs(self, env_factory):
        # Regression: the axis used to be ignored when the env held one task.
        results = run_experiments(
            env_factory, {"conditioning": ["banks", "embedding"]}, total_steps=8,
            base_config=PPOConfig(train_batch_size=8, minibatch_size=8,
                                  epochs_per_batch=1),
        )
        assert [type(result.policy).__name__ for result in results] == [
            "MultiTaskPolicy", "ConditionedPolicy",
        ]
        for result in results:
            assert result.policy.task_names == ["unrolling"]

    def test_tasks_sweep_needs_a_tasks_aware_factory(self, env_factory):
        def legacy_factory():
            return env_factory()

        with pytest.raises(ValueError, match="tasks"):
            run_experiments(
                legacy_factory, {"tasks": [("unrolling",)]}, total_steps=8
            )

    def test_best_experiment_empty_raises_descriptively(self):
        with pytest.raises(ValueError, match="no experiment results"):
            best_experiment([])

    def test_grid_search_rejects_non_sequence_values(self):
        with pytest.raises(ValueError, match="learning_rate"):
            grid_search({"learning_rate": 5e-4})
        with pytest.raises(ValueError, match="policy"):
            grid_search({"policy": "discrete"})
        assert grid_search({"policy": ["discrete"]}) == [{"policy": "discrete"}]

    def test_grid_search_rejects_unordered_candidates(self):
        # A set or a generator has no fixed candidate order.
        with pytest.raises(ValueError, match="learning_rate"):
            grid_search({"learning_rate": {5e-4, 1e-3}})
        with pytest.raises(ValueError, match="policy"):
            grid_search({"policy": (name for name in ["discrete"])})
        assert grid_search({"seed": range(2)}) == [{"seed": 0}, {"seed": 1}]


# ---------------------------------------------------------------------------
# Convergence figure driver
# ---------------------------------------------------------------------------


class TestFigureConvergence:
    def test_from_joint_history(self):
        kernels = joint_kernels()
        framework, artifacts = NeuroVectorizer.train(kernels, joint_config())
        try:
            figure = figure_convergence(artifacts.history)
        finally:
            framework.close()
        assert figure.configurations() == ["default"]
        joint = figure.reward_curve("default")
        assert len(joint) == len(artifacts.history.iterations)
        for name in JOINT_TASKS:
            task_curve = figure.reward_curve("default", task=name)
            assert len(task_curve) == len(joint)
        rendered = figure.format_table().render()
        assert "vectorization" in rendered and "unrolling" in rendered

    def test_from_tune_results(self):
        kernels = joint_kernels()
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        task = resolve_task("vectorization")
        samples = build_samples(kernels, embedding, pipeline, task=task)

        def make_env():
            return MultiTaskEnv(
                [task],
                {task.name: samples},
                evaluation_service=EvaluationService(pipeline),
                seed=0,
            )

        results = run_experiments(
            make_env, {"learning_rate": [1e-3, 1e-4]}, total_steps=8,
            base_config=PPOConfig(train_batch_size=8, minibatch_size=8,
                                  epochs_per_batch=1),
        )
        figure = figure_convergence(results)
        assert len(figure.configurations()) == 2
        rendered = figure.format_table().render()
        for result in results:
            assert result.name in rendered
        assert "vectorization" in rendered  # single-task tables name it too
