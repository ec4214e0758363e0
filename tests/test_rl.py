"""RL stack tests: spaces, environment, policies, PPO, tune."""

import numpy as np
import pytest

from oracle import evaluate
from repro.core.framework import build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService
from repro.rl.env import COMPILE_TIME_PENALTY, MultiTaskEnv, build_samples
from repro.rl.policy import MultiTaskPolicy, make_policy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import (
    ContinuousJointSpace,
    ContinuousPairSpace,
    DiscreteFactorSpace,
    default_action_space,
    make_action_space,
)
from repro.rl.tune import best_experiment, grid_search, run_experiments


def _tiny_kernels():
    sources = {
        "reduction": (
            "float a[2048], b[2048];\nfloat kernel() { float s = 0;"
            " for (int i = 0; i < 2048; i++) s += a[i] * b[i]; return s; }"
        ),
        "stream": (
            "float x[2048], y[2048];\nvoid kernel(float a) {"
            " for (int i = 0; i < 2048; i++) y[i] = a * x[i] + y[i]; }"
        ),
        "tiny": (
            "int a[16], b[16];\nvoid kernel() {"
            " for (int i = 0; i < 16; i++) a[i] = a[i] + b[i]; }"
        ),
        "recurrence": (
            "float a[2048], b[2048];\nvoid kernel() { float c = 0;"
            " for (int i = 0; i < 2048; i++) { c = a[i] - c; b[i] = c; } }"
        ),
    }
    return [
        LoopKernel(name=name, source=source, function_name="kernel", suite="test")
        for name, source in sources.items()
    ]


@pytest.fixture(scope="module")
def tiny_env():
    kernels = _tiny_kernels()
    pipeline = CompileAndMeasure()
    embedding = build_embedding_model(kernels)
    samples = build_samples(kernels, embedding, pipeline)
    return MultiTaskEnv(
        ["vectorization"],
        {"vectorization": samples},
        evaluation_service=EvaluationService(pipeline),
        seed=0,
    )


class TestActionSpaces:
    def test_discrete_decode(self):
        space = DiscreteFactorSpace()
        assert space.decode((0, 0)) == (1, 1)
        assert space.decode((6, 4)) == (64, 16)
        assert space.decode((2, 1)) == (4, 2)

    def test_discrete_decode_clips_out_of_range(self):
        space = DiscreteFactorSpace()
        assert space.decode((99, -3)) == (64, 1)

    def test_discrete_encode_round_trip(self):
        space = DiscreteFactorSpace()
        for action in space.all_actions():
            assert space.decode(space.encode(action)) == action

    def test_num_factor_pairs_is_35(self):
        assert default_action_space().num_actions == 35

    def test_continuous_joint_covers_extremes(self):
        space = ContinuousJointSpace()
        assert space.decode([0.0]) == (1, 1)
        assert space.decode([1.0]) == (64, 16)

    def test_continuous_joint_round_trip(self):
        space = ContinuousJointSpace()
        for vf in (1, 4, 64):
            for interleave in (1, 8):
                assert space.decode(space.encode((vf, interleave))) == (vf, interleave)

    def test_continuous_pair_round_trip(self):
        space = ContinuousPairSpace()
        for vf in (2, 16):
            for interleave in (2, 16):
                assert space.decode(space.encode((vf, interleave))) == (vf, interleave)

    def test_continuous_values_are_clipped(self):
        space = ContinuousPairSpace()
        assert space.decode([5.0, -2.0]) == (64, 1)

    @pytest.mark.parametrize("kind", ["discrete", "continuous1", "continuous2"])
    def test_nan_action_is_a_named_value_error(self, kind):
        space = make_action_space(kind)
        with pytest.raises(ValueError, match=rf"^{kind} action space .*\[nan, 0\.5\].*NaN"):
            space.decode(np.array([np.nan, 0.5]))


class TestRoundingTieBreaks:
    """Menu-midpoint rounding is pinned: ties resolve to the smaller factor."""

    def test_pair_space_if_midpoints_round_down(self):
        # The IF menu (1, 2, 4, 8, 16) has 4 intervals, so the raw values
        # (k + 0.5) / 4 land exactly between indices k and k + 1.
        space = ContinuousPairSpace()
        for k, smaller in enumerate((1, 2, 4, 8)):
            value = (k + 0.5) / 4
            assert space.decode([0.0, value])[1] == smaller

    def test_pair_space_vf_midpoints_round_down(self):
        space = ContinuousPairSpace()
        for k, smaller in enumerate((1, 2, 4, 8, 16, 32)):
            value = (k + 0.5) / 6
            scaled = value * 6
            assert scaled == k + 0.5  # the boundary is exact in float
            assert space.decode([value, 0.0])[0] == smaller

    def test_joint_space_midpoints_round_down(self):
        space = ContinuousJointSpace()
        actions = space.all_actions()
        for k in (0, 1, 4, 17, 33):  # includes the 1/2 and 2/4 boundaries
            value = (k + 0.5) / (space.num_actions - 1)
            assert space.decode([value]) == actions[k]

    def test_encode_equidistant_targets_pick_smaller_factor(self):
        space = DiscreteFactorSpace()
        # 3 is exactly between menu entries 2 and 4; 12 between 8 and 16.
        assert space.decode(space.encode((3, 3))) == (2, 2)
        assert space.decode(space.encode((12, 12))) == (8, 8)
        joint = ContinuousJointSpace()
        assert joint.decode(joint.encode((3, 12))) == (2, 8)
        pair = ContinuousPairSpace()
        assert pair.decode(pair.encode((48, 3))) == (32, 2)


class TestEnvironment:
    def test_reset_returns_embedding(self, tiny_env):
        observation = tiny_env.reset()
        assert observation.shape == (tiny_env.observation_dim,)

    def test_step_requires_reset(self, tiny_env):
        tiny_env.reset()
        tiny_env.step((2, 1))
        with pytest.raises(RuntimeError):
            tiny_env.step((2, 1))

    def test_baseline_action_gives_zero_reward(self, tiny_env):
        sample = tiny_env.samples[0]
        pipeline = tiny_env.evaluation_service.pipeline
        baseline = pipeline.measure_baseline(sample.kernel)
        factors = baseline.factors[sample.loop_index]
        reward, _ = tiny_env.evaluate_action(sample, factors)
        assert reward == pytest.approx(0.0, abs=1e-9)

    def test_scalar_action_usually_negative(self, tiny_env):
        rewards = [
            tiny_env.evaluate_action(sample, (1, 1))[0] for sample in tiny_env.samples
        ]
        assert min(rewards) < 0

    def test_reward_cache_hits(self, tiny_env):
        sample = tiny_env.samples[0]
        tiny_env.evaluate_action(sample, (8, 2))
        _, info = tiny_env.evaluate_action(sample, (8, 2))
        assert info.get("cached") == 1.0

    def test_all_samples_visited_before_repeat(self):
        kernels = _tiny_kernels()
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        samples = build_samples(kernels, embedding, pipeline)
        env = MultiTaskEnv(
            ["vectorization"], {"vectorization": samples},
            evaluation_service=EvaluationService(pipeline), shuffle=False, seed=0,
        )
        names = set()
        for _ in range(len(samples)):
            env.reset()
            names.add(env.current_sample().kernel.name)
            env.step((0, 0))
        assert len(names) == len({s.kernel.name for s in samples})

    def test_compile_time_penalty_applied(self):
        kernels = [
            LoopKernel(
                name="wide_double",
                source=(
                    "double a[8192], b[8192], c[8192], d[8192], e[8192], f2[8192];\n"
                    "void kernel() { for (int i = 0; i < 8192; i++)"
                    " f2[i] = a[i] * b[i] + c[i] * d[i] + e[i] * f2[i] + a[i] * c[i]; }"
                ),
                function_name="kernel",
            )
        ]
        pipeline = CompileAndMeasure()
        embedding = build_embedding_model(kernels)
        samples = build_samples(kernels, embedding, pipeline)
        env = MultiTaskEnv(
            ["vectorization"], {"vectorization": samples},
            evaluation_service=EvaluationService(pipeline), compile_time_limit=2.0,
        )
        reward, info = env.evaluate_action(samples[0], (64, 16))
        assert reward == COMPILE_TIME_PENALTY == -9.0
        assert info.get("compile_time_exceeded") == 1.0

    def test_env_requires_samples(self):
        with pytest.raises(ValueError):
            MultiTaskEnv(["vectorization"], {"vectorization": []})


class TestPolicies:
    def test_discrete_policy_act_shapes(self):
        policy = make_policy("discrete", 16, seed=0)
        output = policy.act(np.zeros(16))
        assert output.action.shape == (2,)
        assert isinstance(output.log_prob, float)

    def test_discrete_policy_deterministic_is_argmax(self):
        policy = make_policy("discrete", 8, seed=0)
        observation = np.random.default_rng(0).normal(size=8)
        first = policy.act(observation, deterministic=True).action
        second = policy.act(observation, deterministic=True).action
        assert np.array_equal(first, second)

    def test_discrete_policy_evaluate_shapes(self):
        policy = make_policy("discrete", 8, seed=0)
        observations = np.zeros((5, 8))
        actions = np.zeros((5, 2))
        log_probs, entropy, values = evaluate(policy, observations, actions)
        assert log_probs.shape == (5,)
        assert entropy.shape == (5,)
        assert values.shape == (5,)

    def test_continuous_policy_action_in_unit_interval(self):
        policy = make_policy("continuous2", 8, seed=0)
        output = policy.act(np.zeros(8))
        assert np.all(output.action >= 0.0) and np.all(output.action <= 1.0)

    def test_make_policy_factory(self):
        discrete = make_policy("discrete", 8)
        assert isinstance(discrete, MultiTaskPolicy)
        assert discrete.task_names == ["vectorization"]
        assert make_policy("continuous1", 8).heads_for(None).action_dims == 1
        assert make_policy("continuous2", 8).heads_for(None).action_dims == 2
        with pytest.raises(ValueError):
            make_policy("bogus", 8)

    def test_policy_hidden_sizes_configurable(self):
        small = make_policy("discrete", 8, hidden_sizes=(32, 32))
        large = make_policy("discrete", 8, hidden_sizes=(128, 128))
        assert large.num_parameters() > small.num_parameters()


class TestPPO:
    def test_training_improves_greedy_reward(self, tiny_env):
        policy = make_policy("discrete", tiny_env.observation_dim, seed=1)
        before = float(np.mean(tiny_env.greedy_rewards(policy)))
        trainer = PPOTrainer(
            tiny_env,
            policy,
            PPOConfig(learning_rate=1e-3, train_batch_size=48, minibatch_size=24,
                      epochs_per_batch=4),
        )
        history = trainer.train(total_steps=480, batch_size=48)
        after = float(np.mean(tiny_env.greedy_rewards(policy)))
        assert len(history.iterations) == 10
        assert after > before

    def test_history_reward_curve_monotone_steps(self, tiny_env):
        policy = make_policy("discrete", tiny_env.observation_dim, seed=2)
        trainer = PPOTrainer(tiny_env, policy, PPOConfig(train_batch_size=24,
                                                         minibatch_size=12,
                                                         epochs_per_batch=2,
                                                         learning_rate=1e-3))
        history = trainer.train(total_steps=72, batch_size=24)
        steps = history.steps()
        assert steps == sorted(steps)
        assert history.final_reward_mean == history.reward_curve()[-1]

    def test_continuous_policy_trains_without_error(self, tiny_env):
        policy = make_policy("continuous1", tiny_env.observation_dim, seed=0)
        trainer = PPOTrainer(tiny_env, policy, PPOConfig(train_batch_size=24,
                                                         minibatch_size=12,
                                                         epochs_per_batch=2,
                                                         learning_rate=1e-3))
        history = trainer.train(total_steps=48, batch_size=24)
        assert len(history.iterations) == 2

    def test_trainer_sets_env_action_space(self, tiny_env):
        policy = make_policy("continuous2", tiny_env.observation_dim, seed=0)
        PPOTrainer(tiny_env, policy, PPOConfig())
        assert isinstance(tiny_env.action_spaces["vectorization"], ContinuousPairSpace)
        # restore the discrete space for other tests in this module
        PPOTrainer(tiny_env, make_policy("discrete", tiny_env.observation_dim), PPOConfig())

    def test_config_scaled(self):
        config = PPOConfig(learning_rate=1e-4)
        scaled = config.scaled(learning_rate=5e-3, train_batch_size=10)
        assert scaled.learning_rate == 5e-3
        assert scaled.train_batch_size == 10
        assert config.learning_rate == 1e-4

    @pytest.mark.parametrize(
        "name,value",
        [
            ("train_batch_size", 0),
            ("minibatch_size", 0),
            ("minibatch_size", -4),
            ("epochs_per_batch", 0),
            ("reward_clip", -1.0),
        ],
    )
    def test_config_rejects_settings_that_train_nothing(self, name, value):
        with pytest.raises(ValueError, match=f"PPOConfig.{name}"):
            PPOConfig(**{name: value})
        with pytest.raises(ValueError, match=f"PPOConfig.{name}"):
            PPOConfig().scaled(**{name: value})


class TestTune:
    def test_grid_search_expansion(self):
        grid = grid_search({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(grid) == 6
        assert {"a": 1, "b": "x"} in grid

    def test_grid_search_empty(self):
        assert grid_search({}) == [{}]

    def test_run_experiments_and_best(self, tiny_env):
        def make_env():
            return tiny_env

        results = run_experiments(
            make_env,
            {"learning_rate": [1e-3, 1e-4]},
            total_steps=48,
            base_config=PPOConfig(train_batch_size=24, minibatch_size=12,
                                  epochs_per_batch=2),
        )
        assert len(results) == 2
        assert all(result.history.iterations for result in results)
        best = best_experiment(results)
        assert best.final_reward_mean == max(r.final_reward_mean for r in results)

    def test_run_experiments_rejects_unknown_grid_keys(self, tiny_env):
        # A misspelt key used to train the default config once per candidate.
        with pytest.raises(ValueError) as raised:
            run_experiments(
                lambda: tiny_env,
                {"learning_rte": [1e-3, 1e-2], "policy": ["discrete"]},
                total_steps=24,
            )
        message = str(raised.value)
        assert "['learning_rte']" in message
        for recognised in ("learning_rate", "train_batch_size", "policy", "tasks"):
            assert recognised in message
