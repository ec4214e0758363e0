"""Sample-efficiency claim of §4: the policy converges to a positive reward
mean with a few thousand samples — "35x less than that required for a
brute-force search or a supervised learning method".

Expected shape: the PPO policy reaches a positive (better-than-baseline)
reward mean using far fewer environment steps (compilations) than brute force
would need to label the same training loops.
"""

from repro.core.framework import build_embedding_model
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.distributed import EvaluationService
from repro.rl.env import MultiTaskEnv, build_samples
from repro.rl.policy import make_policy
from repro.rl.ppo import PPOConfig, PPOTrainer


def test_sample_efficiency_vs_bruteforce(benchmark):
    kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=80, seed=1)))
    pipeline = CompileAndMeasure()
    embedding = build_embedding_model(kernels)
    samples = build_samples(kernels, embedding, pipeline)
    env = MultiTaskEnv(
        ["vectorization"],
        {"vectorization": samples},
        evaluation_service=EvaluationService(pipeline),
        seed=1,
    )
    policy = make_policy("discrete", env.observation_dim, seed=1)
    trainer = PPOTrainer(
        env,
        policy,
        PPOConfig(learning_rate=5e-4, train_batch_size=200, minibatch_size=64,
                  epochs_per_batch=6),
    )

    def run():
        return trainer.train(total_steps=4000, batch_size=200)

    history = benchmark.pedantic(run, iterations=1, rounds=1)
    converged_at = history.converged_at(threshold=0.0)
    brute_force_compilations = len(samples) * 35  # full grid per training loop
    print()
    print("reward curve:", [round(r, 3) for r in history.reward_curve()])
    print(
        f"converged (reward mean > 0) after {converged_at} compilations; "
        f"brute-force labelling of the same loops needs {brute_force_compilations}"
    )

    assert converged_at is not None, "policy never reached a positive reward mean"
    assert converged_at < brute_force_compilations
    benchmark.extra_info["converged_at_steps"] = converged_at
    benchmark.extra_info["bruteforce_equivalent_steps"] = brute_force_compilations
    benchmark.extra_info["sample_efficiency_factor"] = round(
        brute_force_compilations / converged_at, 2
    )
