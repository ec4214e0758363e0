"""The PPO step on the autodiff graph: the fused update kernel's oracle.

:func:`evaluate` builds a batch's log-probs, entropies and values from a
:class:`~repro.rl.policy.MultiTaskPolicy` or
:class:`~repro.rl.policy.ConditionedPolicy` the way ``Policy.evaluate``
did when it lived on the policy, and :func:`graph_update_minibatch` is the
minibatch step :class:`~repro.rl.fused_update.FusedUpdater` must match bit
for bit.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from oracle import ops
from oracle.layers import forward
from oracle.losses import (
    categorical_entropy,
    categorical_log_prob,
    gaussian_entropy,
    gaussian_log_prob,
    mse_loss,
)
from oracle.tensor import Tensor
from repro.rl.policy import ConditionedPolicy


def evaluate_from_hidden(bank, hidden: Tensor, actions: np.ndarray):
    """``(log_probs, entropy, values)`` of one head bank over ``hidden``."""
    values = forward(bank.value_head, hidden)
    if bank.kind == "discrete":
        actions = np.asarray(actions)
        # One fused matmul over every head's classes; per-head log-probs
        # and entropies read their own column slice of the result.
        weight = ops.concatenate([head.weight for head in bank.heads], axis=1)
        bias = ops.concatenate([head.bias for head in bank.heads], axis=0)
        logits = ops.add(ops.matmul(hidden, weight), bias)
        log_probs = None
        entropy = None
        offset = 0
        for dimension, head in enumerate(bank.heads):
            head_logits = ops.slice_last_axis(logits, offset, offset + head.out_features)
            offset += head.out_features
            dim_actions = actions[:, dimension].astype(np.int64)
            dim_log_probs = categorical_log_prob(head_logits, dim_actions)
            dim_entropy = categorical_entropy(head_logits)
            log_probs = (
                dim_log_probs if log_probs is None else ops.add(log_probs, dim_log_probs)
            )
            entropy = dim_entropy if entropy is None else ops.add(entropy, dim_entropy)
        return log_probs, entropy, ops.reshape(values, (-1,))
    mean = ops.sigmoid(forward(bank.mean_head, hidden))
    # Joint minibatches are padded to the widest task's arity; only this
    # bank's own dimensions carry meaning.
    actions = np.asarray(actions)[:, : bank.action_dims]
    log_probs = gaussian_log_prob(mean, bank.log_std, actions)
    # The state-independent Gaussian's entropy is one scalar; broadcast it
    # across the batch without the ones-vector multiply.
    entropy = ops.broadcast_to(gaussian_entropy(bank.log_std), (actions.shape[0],))
    return log_probs, entropy, ops.reshape(values, (-1,))


def evaluate(policy, observations: np.ndarray, actions: np.ndarray, task: Optional[str] = None):
    """``(log_probs, entropy, values)`` tensors of ``policy`` for a batch."""
    batch = Tensor(observations)
    hidden = forward(policy.trunk, batch)
    if not isinstance(policy, ConditionedPolicy):
        return evaluate_from_hidden(policy.heads_for(task), hidden, actions)
    name = policy._resolve_name(task)
    row = ops.reshape(policy.task_embeddings[name], (1, policy.task_embed_dim))
    embed = ops.broadcast_to(row, (int(batch.data.shape[0]), policy.task_embed_dim))
    features = ops.concatenate([hidden, embed], axis=1)
    return evaluate_from_hidden(policy.heads_for(name), features, actions)


def graph_update_minibatch(
    policy,
    optimizer,
    config,
    observations,
    actions,
    old_log_probs,
    advantages,
    returns,
    task=None,
    timer=None,
) -> Dict[str, float]:
    """One PPO minibatch step through the autodiff graph."""
    started = time.perf_counter() if timer is not None else 0.0
    log_probs, entropy, values = evaluate(policy, observations, actions, task=task)
    # The clipped surrogate as ONE graph node (ops.ppo_surrogate is
    # bit-identical, forward and backward, to the historical
    # exp/sub/mul/clip/minimum/mean/mul chain).
    policy_loss = ops.ppo_surrogate(
        log_probs,
        old_log_probs,
        advantages,
        1.0 - config.clip_ratio,
        1.0 + config.clip_ratio,
    )
    value_loss = mse_loss(values, Tensor(returns))
    entropy_bonus = ops.mean(entropy)
    total_loss = ops.add(
        ops.add(policy_loss, ops.mul(value_loss, config.value_coefficient)),
        ops.mul(entropy_bonus, -config.entropy_coefficient),
    )
    if timer is not None:
        now = time.perf_counter()
        timer.add("evaluate", now - started)
        started = now
    optimizer.zero_grad()
    total_loss.backward()
    if timer is not None:
        now = time.perf_counter()
        timer.add("backward", now - started)
        started = now
    optimizer.clip_gradients(config.max_gradient_norm)
    optimizer.step()
    if timer is not None:
        timer.add("optimizer", time.perf_counter() - started)
    return {
        "total_loss": float(total_loss.item()),
        "policy_loss": float(policy_loss.item()),
        "value_loss": float(value_loss.item()),
        "entropy": float(entropy_bonus.item()),
    }
