"""A miniature Tune: grid search over training configurations.

The paper uses Ray Tune to sweep learning rates, network architectures,
batch sizes and action-space definitions (Figures 5 and 6); this module
provides the same "give me a dict of parameter lists, get back a curve per
configuration" workflow — generalized over optimization tasks, so the same
grid can sweep ``tasks=[...]`` combinations (single-task vs joint
multi-task training) alongside the paper's axes.

Every configuration trains on a :class:`repro.rl.env.MultiTaskEnv` with a
policy built from the env's own tasks — one head bank (or task embedding)
per task, with that task's menus — never with the (VF, IF) defaults a
task-less policy would fall back to.  A grid key the runner does not know
is rejected rather than silently trained as the default.
"""

from __future__ import annotations

import inspect
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional

from repro.rl.env import MultiTaskEnv
from repro.rl.policy import Policy, make_policy
from repro.rl.ppo import PPOConfig, PPOTrainer, TrainingHistory


def grid_search(parameter_grid: Dict[str, Sequence]) -> List[Dict[str, object]]:
    """Expand a dict of lists into the list of all configurations.

    Every value must be a *sequence of candidates* (list/tuple), not a bare
    scalar — ``{"learning_rate": 5e-4}`` would otherwise be silently
    ignored or, worse, iterated character-wise for strings.  A set or a
    generator is rejected too: neither has a fixed candidate order.
    """
    if not parameter_grid:
        return [{}]
    for key, values in parameter_grid.items():
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise ValueError(
                f"grid values for {key!r} must be a sequence of candidates "
                f"(e.g. [{values!r}]), got {type(values).__name__}: {values!r}"
            )
    keys = sorted(parameter_grid.keys())
    combos = itertools.product(*(parameter_grid[key] for key in keys))
    return [dict(zip(keys, combo)) for combo in combos]


@dataclass
class ExperimentResult:
    """One configuration's training outcome."""

    name: str
    parameters: Dict[str, object]
    history: TrainingHistory
    #: The trained policy of this configuration (usable for inference via
    #: :class:`repro.agents.policy_agent.PolicyAgent`).
    policy: Optional[Policy] = None

    @property
    def final_reward_mean(self) -> float:
        return self.history.final_reward_mean


def _config_name(parameters: Dict[str, object]) -> str:
    if not parameters:
        return "default"
    return ",".join(f"{key}={value}" for key, value in sorted(parameters.items()))


def _make_environment(make_env: Callable, parameters: Dict[str, object]):
    """Build the experiment's environment, forwarding a ``tasks`` sweep."""
    tasks = parameters.get("tasks")
    if tasks is None:
        return make_env()
    # A grid like {"tasks": ["vectorization", "unrolling"]} sweeps *single*
    # tasks: each candidate is one task name (or task object), not an
    # iterable of them — wrap it so tuple() below cannot explode a string
    # into per-character "tasks".
    if isinstance(tasks, (str, bytes)) or not isinstance(tasks, Sequence):
        tasks = (tasks,)
    signature = inspect.signature(make_env)
    accepts_tasks = "tasks" in signature.parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in signature.parameters.values()
    )
    if not accepts_tasks:
        raise ValueError(
            "the parameter grid sweeps tasks=... but make_env() does not "
            "accept a tasks argument; give the factory a "
            "tasks=None keyword that builds a MultiTaskEnv for it"
        )
    return make_env(tasks=tuple(tasks))


def _make_experiment_policy(
    env: MultiTaskEnv, policy_kind: str, hidden_sizes, seed: int, conditioning=None
) -> Policy:
    """A policy shaped by the env's own tasks — never the (VF, IF) default."""
    return make_policy(
        policy_kind,
        env.observation_dim,
        hidden_sizes=hidden_sizes,
        seed=seed,
        spaces={
            name: task.action_space(policy_kind) for name, task in env.tasks.items()
        },
        conditioning=conditioning,
    )


#: Grid keys that shape the env or policy rather than :class:`PPOConfig`.
_POLICY_KEYS = ("conditioning", "hidden_sizes", "policy", "tasks")


def run_experiments(
    make_env: Callable[..., MultiTaskEnv],
    parameter_grid: Dict[str, Sequence],
    total_steps: int,
    base_config: Optional[PPOConfig] = None,
    seed: int = 0,
) -> List[ExperimentResult]:
    """Train one PPO agent per configuration in the grid.

    Recognised parameter keys:

    * any :class:`PPOConfig` field (``learning_rate``,
      ``train_batch_size``, ``minibatch_size``, ``entropy_coefficient``,
      ...) — forwarded to the config,
    * ``hidden_sizes`` — the FCNN architecture (tuple of layer widths),
    * ``policy`` — ``"discrete"``, ``"continuous1"`` or ``"continuous2"``
      (the Figure 6 action-space study),
    * ``tasks`` — a tuple of registered task names trained jointly for
      this configuration (the Figure 5/6 study generalized to multi-task);
      ``make_env`` must accept a ``tasks=`` keyword for this axis,
    * ``conditioning`` — ``"banks"`` or ``"embedding"``, the policy
      architecture (see :func:`repro.rl.policy.make_policy`).

    Any other key raises a ``ValueError`` naming it.  Every experiment's
    policy is built from the environment's task menus, one head bank (or
    task embedding) per task.
    """
    config_keys = [entry.name for entry in fields(PPOConfig)]
    unknown = sorted(set(parameter_grid) - set(config_keys) - set(_POLICY_KEYS))
    if unknown:
        raise ValueError(
            f"unknown parameter grid key(s) {unknown}; recognised keys: "
            f"{sorted(config_keys + list(_POLICY_KEYS))}"
        )
    base_config = base_config or PPOConfig()
    results: List[ExperimentResult] = []
    for parameters in grid_search(parameter_grid):
        env = _make_environment(make_env, parameters)
        config_overrides = {
            key: value for key, value in parameters.items() if key in config_keys
        }
        config = base_config.scaled(**config_overrides)
        hidden_sizes = tuple(parameters.get("hidden_sizes", (64, 64)))
        policy_kind = str(parameters.get("policy", "discrete"))
        policy = _make_experiment_policy(
            env, policy_kind, hidden_sizes, seed,
            conditioning=parameters.get("conditioning"),
        )
        trainer = PPOTrainer(env, policy, config)
        history = trainer.train(total_steps)
        results.append(
            ExperimentResult(
                name=_config_name(parameters),
                parameters=parameters,
                history=history,
                policy=policy,
            )
        )
    return results


def best_experiment(results: Sequence[ExperimentResult]) -> ExperimentResult:
    """The configuration with the highest final mean reward."""
    if not results:
        raise ValueError(
            "best_experiment: no experiment results to choose from — the "
            "parameter grid produced no configurations (or every run was "
            "filtered out before reaching here)"
        )
    return max(results, key=lambda result: result.final_reward_mean)
