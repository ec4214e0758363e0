"""Byte-identity regression suite for the fused PPO update.

The fused kernel (:class:`repro.rl.fused_update.FusedUpdater`) and the
fused composite ops (:func:`repro.nn.ops.ppo_surrogate`,
:func:`repro.nn.ops.entropy_from_logits`) are pure re-expressions of
slower reference code.  The kernel's reference is the autodiff graph,
:func:`repro.rl.fused_update.graph_update_minibatch`, swapped onto a
trainer's updater instance.  Every test here compares raw bytes — losses,
per-parameter gradients, Adam moment state, trained weights — against the
reference, because "close" is not the contract: the contract is
*identical*.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, ops
from repro.rl.fused_update import FusedUpdater, graph_update_minibatch
from repro.rl.policy import MultiTaskPolicy, make_policy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import (
    ContinuousJointSpace,
    ContinuousPairSpace,
    DiscreteFactorSpace,
)


def _discrete_space(*sizes):
    return DiscreteFactorSpace(
        menus=tuple(tuple(range(1, size + 1)) for size in sizes)
    )


class _NullEnv:
    def set_action_spaces(self, spaces):
        pass


def _synth_batch(spaces, rng, count, observation_dim):
    names = list(spaces)
    observations = rng.standard_normal((count, observation_dim))
    max_dims = max(
        (len(space.sizes) if getattr(space, "sizes", None) else space.dims)
        for space in spaces.values()
    )
    tasks = [names[i % len(names)] for i in range(count)]
    actions = np.zeros((count, max_dims), dtype=np.float64)
    for i, task in enumerate(tasks):
        space = spaces[task]
        if getattr(space, "sizes", None):
            for j, size in enumerate(space.sizes):
                actions[i, j] = rng.integers(0, size)
        else:
            actions[i, : space.dims] = rng.uniform(0.05, 0.95, size=space.dims)
    old_log_probs = rng.standard_normal(count) * 0.3 - 1.0
    rewards = rng.standard_normal(count)
    values = rng.standard_normal(count) * 0.5
    return observations, actions, old_log_probs, rewards, values, tasks


def _run_training(kind, spaces, conditioning, graph, *, count=97, updates=3,
                  minibatch=16, epochs=3, observation_dim=6):
    policy = make_policy(
        kind,
        observation_dim,
        hidden_sizes=(16, 8),
        seed=3,
        spaces=spaces,
        conditioning=conditioning,
    )
    config = PPOConfig(minibatch_size=minibatch, epochs_per_batch=epochs)
    trainer = PPOTrainer(_NullEnv(), policy, config)
    if graph:
        trainer._updater.update_minibatch = functools.partial(
            graph_update_minibatch, policy, trainer.optimizer, config
        )
    rng = np.random.default_rng(77)
    metrics = []
    for _ in range(updates):
        batch = _synth_batch(spaces, rng, count, observation_dim)
        metrics.append(trainer.update(*batch[:5], task_names=batch[5]))
    return trainer, metrics


def _fingerprint(trainer):
    weights = [p.data.tobytes() for p in trainer.policy.parameters()]
    grads = [
        None if p.grad is None else p.grad.tobytes()
        for p in trainer.policy.parameters()
    ]
    moments = []
    for p in trainer.policy.parameters():
        first, second = trainer.optimizer.moments(p)
        moments.append(
            (
                None if first is None else first.tobytes(),
                None if second is None else second.tobytes(),
            )
        )
    return weights, grads, moments


ARCHITECTURES = [
    pytest.param(
        "discrete",
        {"a": DiscreteFactorSpace(), "b": _discrete_space(4, 3, 2)},
        "banks",
        id="discrete-banks",
    ),
    pytest.param(
        "continuous2",
        {"a": ContinuousPairSpace(), "b": ContinuousPairSpace()},
        "banks",
        id="gaussian-banks",
    ),
    pytest.param(
        "discrete",
        {
            "a": DiscreteFactorSpace(),
            "b": _discrete_space(4, 3, 2),
            "c": _discrete_space(5, 2),
        },
        "embedding",
        id="discrete-embedding",
    ),
    pytest.param(
        "continuous1",
        {"a": ContinuousJointSpace(), "b": ContinuousJointSpace()},
        "embedding",
        id="gaussian-embedding",
    ),
]


class TestFusedUpdateByteIdentity:
    """The fused kernel must be indistinguishable from the graph path."""

    @pytest.mark.parametrize("kind,spaces,conditioning", ARCHITECTURES)
    def test_training_identity(self, kind, spaces, conditioning):
        graph_trainer, graph_metrics = _run_training(
            kind, spaces, conditioning, graph=True
        )
        fused_trainer, fused_metrics = _run_training(
            kind, spaces, conditioning, graph=False
        )
        assert "update_minibatch" not in vars(fused_trainer._updater)
        graph_step = vars(graph_trainer._updater)["update_minibatch"]
        assert graph_step.func is graph_update_minibatch
        assert graph_metrics == fused_metrics
        assert _fingerprint(graph_trainer) == _fingerprint(fused_trainer)

    def test_single_task_identity(self):
        spaces = {"only": DiscreteFactorSpace()}
        graph_trainer, graph_metrics = _run_training(
            "discrete", spaces, "banks", graph=True
        )
        fused_trainer, fused_metrics = _run_training(
            "discrete", spaces, "banks", graph=False
        )
        assert graph_metrics == fused_metrics
        assert _fingerprint(graph_trainer) == _fingerprint(fused_trainer)

    def test_rejects_unsupported_policies(self):
        class Opaque:
            def parameters(self):
                return []

        class Reweighted(MultiTaskPolicy):
            def evaluate(self, observations, actions, task=None):
                return super().evaluate(observations, actions, task=task)

        reweighted = Reweighted(
            6, {"vectorization": DiscreteFactorSpace()}, hidden_sizes=(8,), seed=0
        )
        for policy in (Opaque(), reweighted):
            with pytest.raises(ValueError, match=type(policy).__name__):
                PPOTrainer(_NullEnv(), policy, PPOConfig())

    def test_accepts_standard_policies(self):
        policies = [
            make_policy("discrete", 6, hidden_sizes=(8,), seed=0),
            make_policy("continuous2", 6, hidden_sizes=(8,), seed=0),
            make_policy(
                "discrete", 6, hidden_sizes=(8,), seed=0,
                spaces={"a": DiscreteFactorSpace()}, conditioning="embedding",
            ),
        ]
        for policy in policies:
            assert FusedUpdater(policy, None, PPOConfig()).policy is policy

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        minibatch=st.integers(min_value=1, max_value=97),
        epochs=st.integers(min_value=1, max_value=3),
        count=st.integers(min_value=4, max_value=60),
    )
    def test_identity_over_random_minibatch_sizes(self, minibatch, epochs, count):
        spaces = {"a": DiscreteFactorSpace(), "b": _discrete_space(4, 3, 2)}
        graph_trainer, graph_metrics = _run_training(
            "discrete", spaces, "banks", graph=True,
            count=count, updates=1, minibatch=minibatch, epochs=epochs,
        )
        fused_trainer, fused_metrics = _run_training(
            "discrete", spaces, "banks", graph=False,
            count=count, updates=1, minibatch=minibatch, epochs=epochs,
        )
        assert graph_metrics == fused_metrics
        assert _fingerprint(graph_trainer) == _fingerprint(fused_trainer)


class TestFusedOps:
    """The fused graph nodes must match the historical op chains bitwise."""

    def _raw_surrogate(self, log_probs, old_log_probs, advantages, low, high):
        ratio = ops.exp(ops.sub(log_probs, Tensor.ensure(old_log_probs)))
        unclipped = ops.mul(ratio, Tensor.ensure(advantages))
        clipped = ops.mul(
            ops.clip(ratio, low, high), Tensor.ensure(advantages)
        )
        return ops.mul(ops.mean(ops.minimum(unclipped, clipped)), -1.0)

    def test_ppo_surrogate_matches_raw_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            count = int(rng.integers(1, 64))
            log_probs_data = rng.standard_normal(count)
            old = rng.standard_normal(count)
            advantages = rng.standard_normal(count)

            raw_input = Tensor(log_probs_data.copy(), requires_grad=True)
            raw = self._raw_surrogate(raw_input, old, advantages, 0.8, 1.2)
            raw.backward()

            fused_input = Tensor(log_probs_data.copy(), requires_grad=True)
            fused = ops.ppo_surrogate(fused_input, old, advantages, 0.8, 1.2)
            fused.backward()

            assert fused.data.tobytes() == raw.data.tobytes()
            assert fused_input.grad.tobytes() == raw_input.grad.tobytes()

    def test_entropy_from_logits_matches_raw_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            shape = (int(rng.integers(1, 16)), int(rng.integers(2, 9)))
            logits_data = rng.standard_normal(shape)
            seed = rng.standard_normal(shape[0])

            raw_input = Tensor(logits_data.copy(), requires_grad=True)
            softmax = ops.softmax(raw_input, axis=-1)
            log_softmax = ops.log_softmax(raw_input, axis=-1)
            raw = ops.mul(
                ops.sum(ops.mul(softmax, log_softmax), axis=-1), -1.0
            )
            raw.backward(seed)

            fused_input = Tensor(logits_data.copy(), requires_grad=True)
            fused = ops.entropy_from_logits(fused_input)
            fused.backward(seed)

            assert fused.data.tobytes() == raw.data.tobytes()
            assert fused_input.grad.tobytes() == raw_input.grad.tobytes()

