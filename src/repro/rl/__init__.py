"""Deep RL machinery: the optimization environment, PPO and sweeps.

The paper uses RLlib/Tune with a PPO contextual bandit: one observation (the
loop embedding), one action (the VF/IF pair), one reward (normalised execution
time improvement), episode over.  This package provides the offline
equivalents:

* :mod:`repro.rl.spaces` — the three action-space encodings studied in
  Figure 6 (discrete, one continuous value, two continuous values),
* :mod:`repro.rl.env` — the contextual-bandit environment, one class for
  one task or several, built on the compile-and-measure pipeline, with the
  compile-time penalty of §3.4,
* :mod:`repro.rl.policy` — tanh-MLP policies with categorical or Gaussian
  heads and a value head, one head bank (or task embedding) per task
  name,
* :mod:`repro.rl.ppo` — clipped PPO with minibatch Adam epochs,
* :mod:`repro.rl.tune` — a small grid-search runner used for the
  hyperparameter study of Figure 5.
"""

from repro.rl.spaces import (
    ActionSpace,
    ContinuousJointSpace,
    ContinuousPairSpace,
    DiscreteFactorSpace,
    default_action_space,
    make_action_space,
)
from repro.rl.env import EnvSample, MultiTaskEnv, build_samples
from repro.rl.policy import MultiTaskPolicy, Policy, make_policy
from repro.rl.ppo import PPOConfig, PPOTrainer, TrainingHistory
from repro.rl.tune import grid_search, run_experiments

__all__ = [
    "ActionSpace",
    "DiscreteFactorSpace",
    "ContinuousJointSpace",
    "ContinuousPairSpace",
    "default_action_space",
    "make_action_space",
    "EnvSample",
    "MultiTaskEnv",
    "build_samples",
    "Policy",
    "MultiTaskPolicy",
    "make_policy",
    "PPOConfig",
    "PPOTrainer",
    "TrainingHistory",
    "grid_search",
    "run_experiments",
]
