"""The PPO minibatch update: one hand-fused forward and backward.

The per-minibatch update used to build ~50 autodiff graph nodes (trunk
matmuls, fused-head slices, per-head log-softmax/entropy chains, the
clip/minimum surrogate, MSE value loss) and then walk them backwards,
allocating a closure and several temporaries per node.  Profiling shows
that Python-level graph construction and backward-closure dispatch — not
numpy arithmetic — dominate the update phase once rollouts are batched.

:class:`FusedUpdater` evaluates the same computation as ONE forward + ONE
backward function per minibatch, with **no graph construction at all**,
and is the trainer's only minibatch step.  Every numpy expression
replicates the op chain the graph would have run — same operations, same
order, same gradient accumulation order (including the subtle cases: the
clipped-branch-first accumulation into the ratio, the
log-softmax-then-softmax accumulation into each head's logits slice, the
``exp(log_softmax)`` recomputation inside the log-softmax backward, the
value-branch-before-policy-branch accumulation into the trunk features,
and the ``-0.0 → +0.0`` normalization when two or more head slices pad
into the fused logits gradient).

That graph is kept with the tests as their oracle
(``tests/oracle/policy.py::graph_update_minibatch``):
``tests/test_fused_update.py`` and ``benchmarks/profile_update.py`` swap
it in to check that losses, gradients, optimizer state and trained
weights are bit-identical.

The kernel serves :class:`MultiTaskPolicy` (and its single-bank
specializations) and :class:`ConditionedPolicy`: a tanh-MLP trunk, linear
discrete or Gaussian heads, and — for the conditioned policy — task
embedding rows concatenated onto the trunk features.  Any other policy,
a subclass of those two included, is rejected at construction.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.rl.policy import ConditionedPolicy, MultiTaskPolicy

_LOG_2PI = float(np.log(2.0 * np.pi))
_ENTROPY_CONSTANT = 0.5 * float(np.log(2.0 * np.pi * np.e))


def _ppo_surrogate_forward(log_probs, old_log_probs, advantages, low, high):
    """Forward pass of exp/clip/minimum/mean PPO surrogate; returns the
    scalar loss plus the saved arrays its backward needs."""
    delta = log_probs - old_log_probs
    ratio = np.exp(delta)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, low, high) * advantages
    objective = np.minimum(unclipped, clipped)
    loss = objective.mean() * -1.0
    return loss, ratio, unclipped, clipped


def _ppo_surrogate_backward(
    gradient, ratio, unclipped, clipped, advantages, low, high
):
    """Gradient of the fused surrogate w.r.t. the log-probs.

    Replicates the primitive chain's accumulation order exactly: the
    minimum node routes into the clipped branch first (mask from
    ``unclipped <= clipped``), the clip mask gates the clipped branch, and
    the unclipped branch adds on top — then the whole thing flows back
    through exp as a multiply by the ratio.
    """
    g_mean = np.broadcast_to((gradient * -1.0) / ratio.size, ratio.shape)
    mask_min = unclipped <= clipped
    g_unclipped = g_mean * mask_min
    g_clipped = g_mean * (~mask_min)
    clip_mask = (ratio >= low) & (ratio <= high)
    g_ratio = (g_clipped * advantages) * clip_mask
    g_ratio = g_ratio + g_unclipped * advantages
    return g_ratio * ratio


def _entropy_backward(gradient, log_softmax_values, probs):
    """Gradient of per-row categorical entropy w.r.t. the logits.

    Replicates the primitive chain (softmax + log_softmax + mul + sum +
    mul(-1)) exactly, including its accumulation order into the logits:
    the log-softmax branch lands first, then the softmax branch — and the
    log-softmax backward recomputes its softmax as ``exp(out)``, which is
    NOT bit-identical to the softmax node's ``exps / sum`` output, so both
    variants appear below on purpose.
    """
    g_sum = gradient * -1.0
    g_product = np.broadcast_to(
        np.expand_dims(g_sum, axis=-1), log_softmax_values.shape
    )
    g_probs = g_product * log_softmax_values
    g_log_softmax = g_product * probs
    softmax_of_log = np.exp(log_softmax_values)
    total = g_log_softmax.sum(axis=-1, keepdims=True)
    g_logits = g_log_softmax - softmax_of_log * total
    dot = (g_probs * probs).sum(axis=-1, keepdims=True)
    g_logits = g_logits + probs * (g_probs - dot)
    return g_logits


class FusedUpdater:
    """Bit-exact fused forward/backward PPO updates for one trainer.

    Holds the policy, optimizer and config; :meth:`update_minibatch` is
    bit-identical to the autodiff graph of the same step for every task
    the policy serves.
    """

    def __init__(self, policy, optimizer, config):
        if type(policy) not in (MultiTaskPolicy, ConditionedPolicy):
            raise ValueError(
                "the PPO update kernel replicates MultiTaskPolicy and "
                f"ConditionedPolicy; {type(policy).__name__} is neither"
            )
        self.policy = policy
        self.optimizer = optimizer
        self.config = config
        self.conditioned = isinstance(policy, ConditionedPolicy)
        self._trunk = [
            (layer.weight, layer.bias) for layer in policy.trunk.layers
        ]

    # -- the fused step ------------------------------------------------------

    def update_minibatch(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        advantages: np.ndarray,
        returns: np.ndarray,
        task=None,
        timer=None,
    ) -> Dict[str, float]:
        """One PPO minibatch step — bit-identical to the autodiff graph."""
        config = self.config
        bank = self.policy.heads_for(task)
        started = time.perf_counter() if timer is not None else 0.0

        # ---- forward -------------------------------------------------------
        layer_inputs: List[np.ndarray] = []  # x entering each trunk layer
        outputs: List[np.ndarray] = []  # h = tanh(x @ W + b) per layer
        x = observations
        for weight, bias in self._trunk:
            layer_inputs.append(x)
            h = np.tanh(x @ weight.data + bias.data)
            outputs.append(h)
            x = h
        hidden = x

        embedding = None
        if self.conditioned:
            name = self.policy._resolve_name(task)
            embedding = self.policy.task_embeddings[name]
            embed_dim = self.policy.task_embed_dim
            features = np.concatenate(
                [
                    hidden,
                    np.broadcast_to(
                        embedding.data.reshape(1, embed_dim),
                        (observations.shape[0], embed_dim),
                    ),
                ],
                axis=1,
            )
        else:
            features = hidden

        value_head = bank.value_head
        value_pre = features @ value_head.weight.data + value_head.bias.data

        if bank.kind == "discrete":
            forward = self._discrete_forward(bank, features, actions)
        else:
            forward = self._gaussian_forward(bank, features, actions)
        log_probs, entropy = forward[0], forward[1]

        count = observations.shape[0]
        policy_loss, ratio, unclipped, clipped = _ppo_surrogate_forward(
            log_probs,
            old_log_probs,
            advantages,
            1.0 - config.clip_ratio,
            1.0 + config.clip_ratio,
        )
        values_flat = value_pre.reshape(-1)
        value_diff = values_flat - returns
        value_loss = (value_diff * value_diff).mean()
        entropy_bonus = entropy.mean()
        total_loss = (
            policy_loss + value_loss * config.value_coefficient
        ) + entropy_bonus * -config.entropy_coefficient

        if timer is not None:
            now = time.perf_counter()
            timer.add("evaluate", now - started)
            started = now

        # ---- backward ------------------------------------------------------
        self.optimizer.zero_grad()

        # Entropy branch fires first in the graph's reverse-topological
        # order; the per-parameter contributions it produces are threaded
        # into the bank backward below in that same order.
        g_entropy = np.broadcast_to(
            np.asarray((1.0 * -config.entropy_coefficient) / count), (count,)
        )
        # Value branch (fires before the policy branch): the features
        # gradient starts from the value head.
        g_sq = (1.0 * config.value_coefficient) / count
        half = g_sq * value_diff
        g_value = (half + half).reshape(count, 1)
        value_head.bias._accumulate(g_value.sum(axis=0))
        g_features = g_value @ np.swapaxes(value_head.weight.data, -1, -2)
        value_head.weight._accumulate(
            np.swapaxes(features, -1, -2) @ g_value
        )
        # Policy branch: clipped surrogate back to the log-probs.
        g_log_probs = _ppo_surrogate_backward(
            1.0,
            ratio,
            unclipped,
            clipped,
            advantages,
            1.0 - config.clip_ratio,
            1.0 + config.clip_ratio,
        )

        if bank.kind == "discrete":
            g_features = self._discrete_backward(
                bank, features, forward, g_entropy, g_log_probs, g_features
            )
        else:
            g_features = self._gaussian_backward(
                bank, features, forward, g_entropy, g_log_probs, g_features
            )

        if embedding is not None:
            hidden_width = hidden.shape[1]
            g_hidden = g_features[:, :hidden_width]
            # The graph copies the concat slice before the broadcast node
            # sums it; sum the same contiguous layout.
            g_embed = g_features[:, hidden_width:].copy()
            embedding._accumulate(
                g_embed.sum(axis=0, keepdims=True).reshape(-1)
            )
        else:
            g_hidden = g_features

        gradient = g_hidden
        for index in range(len(self._trunk) - 1, -1, -1):
            weight, bias = self._trunk[index]
            g_z = gradient * (1.0 - outputs[index] ** 2)
            bias._accumulate(g_z.sum(axis=0))
            if index > 0:
                gradient = g_z @ np.swapaxes(weight.data, -1, -2)
            weight._accumulate(np.swapaxes(layer_inputs[index], -1, -2) @ g_z)

        if timer is not None:
            now = time.perf_counter()
            timer.add("backward", now - started)
            started = now

        # ---- optimizer -----------------------------------------------------
        self.optimizer.clip_gradients(config.max_gradient_norm)
        self.optimizer.step()
        if timer is not None:
            timer.add("optimizer", time.perf_counter() - started)

        return {
            "total_loss": float(total_loss),
            "policy_loss": float(policy_loss),
            "value_loss": float(value_loss),
            "entropy": float(entropy_bonus),
        }

    # -- discrete banks ------------------------------------------------------

    def _discrete_forward(self, bank, features, actions):
        """Fused-head categorical forward; saves per-head softmax state."""
        weights = np.concatenate([head.weight.data for head in bank.heads], axis=1)
        biases = np.concatenate([head.bias.data for head in bank.heads], axis=0)
        logits = features @ weights + biases
        head_log_softmax: List[np.ndarray] = []
        head_probs: List[np.ndarray] = []
        head_indices: List[np.ndarray] = []
        log_probs = None
        entropy = None
        offset = 0
        for dimension, head in enumerate(bank.heads):
            head_logits = logits[:, offset : offset + head.out_features]
            offset += head.out_features
            shifted = head_logits - head_logits.max(axis=-1, keepdims=True)
            log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            log_softmax_values = shifted - log_sum
            exps = np.exp(shifted)
            probs = exps / exps.sum(axis=-1, keepdims=True)
            indices = actions[:, dimension].astype(np.int64).reshape(-1, 1)
            picked = np.take_along_axis(
                log_softmax_values, indices, axis=-1
            ).squeeze(-1)
            head_entropy = (probs * log_softmax_values).sum(axis=-1) * -1.0
            head_log_softmax.append(log_softmax_values)
            head_probs.append(probs)
            head_indices.append(indices)
            log_probs = picked if log_probs is None else log_probs + picked
            entropy = (
                head_entropy if entropy is None else entropy + head_entropy
            )
        return (
            log_probs,
            entropy,
            weights,
            logits,
            head_log_softmax,
            head_probs,
            head_indices,
        )

    def _discrete_backward(
        self, bank, features, forward, g_entropy, g_log_probs, g_features
    ):
        (_, _, weights, logits, head_log_softmax, head_probs, head_indices) = forward
        rows = features.shape[0]
        head_count = len(bank.heads)
        slice_grads: List[Optional[np.ndarray]] = [None] * head_count
        # Entropy chain: heads fire in reverse order; each head's slice
        # gradient starts with the entropy contribution (log-softmax branch
        # first, then softmax — _entropy_backward replicates that order).
        for dimension in range(head_count - 1, -1, -1):
            slice_grads[dimension] = _entropy_backward(
                g_entropy, head_log_softmax[dimension], head_probs[dimension]
            )
        # Policy chain: scatter the shared log-prob gradient through each
        # head's picked-index node and log-softmax, adding onto the slice
        # gradients (again in reverse head order, matching the graph).
        g_logits = np.zeros_like(logits)
        offsets = np.cumsum([0] + [head.out_features for head in bank.heads])
        for dimension in range(head_count - 1, -1, -1):
            log_softmax_values = head_log_softmax[dimension]
            scattered = np.zeros_like(log_softmax_values)
            np.put_along_axis(
                scattered,
                head_indices[dimension],
                g_log_probs.reshape(g_log_probs.shape + (1,)),
                axis=-1,
            )
            softmax_values = np.exp(log_softmax_values)
            total = scattered.sum(axis=-1, keepdims=True)
            slice_grad = slice_grads[dimension] + (
                scattered - softmax_values * total
            )
            g_logits[:, offsets[dimension] : offsets[dimension + 1]] = slice_grad
        if head_count >= 2:
            # The graph pads each slice gradient to full width and sums the
            # pads, which flushes any -0.0 to +0.0 (x + 0.0); replicate.
            np.add(g_logits, 0.0, out=g_logits)
        g_bias = g_logits.sum(axis=0)
        for dimension, head in enumerate(bank.heads):
            head.bias._accumulate(g_bias[offsets[dimension] : offsets[dimension + 1]])
        g_features = g_features + g_logits @ np.swapaxes(weights, -1, -2)
        g_weights = np.swapaxes(features, -1, -2) @ g_logits
        for dimension, head in enumerate(bank.heads):
            head.weight._accumulate(
                g_weights[:, offsets[dimension] : offsets[dimension + 1]]
            )
        return g_features

    # -- gaussian banks ------------------------------------------------------

    def _gaussian_forward(self, bank, features, actions):
        mean_head = bank.mean_head
        mean_pre = features @ mean_head.weight.data + mean_head.bias.data
        mean = 1.0 / (1.0 + np.exp(-mean_pre))
        dims = bank.action_dims
        action_values = np.asarray(actions)[:, :dims]
        action_values = np.asarray(action_values, dtype=np.float64)
        log_std = bank.log_std.data
        doubled_log_std = log_std * 2.0
        variance = np.exp(doubled_log_std)
        difference = action_values - mean
        squared = difference * difference
        quadratic = squared / variance
        per_dimension = (quadratic + doubled_log_std + _LOG_2PI) * -0.5
        log_probs = per_dimension.sum(axis=-1)
        entropy_sum = (log_std + _ENTROPY_CONSTANT).sum(axis=None, keepdims=False)
        entropy = np.broadcast_to(entropy_sum, (action_values.shape[0],)).copy()
        return (log_probs, entropy, mean, difference, squared, variance)

    def _gaussian_backward(
        self, bank, features, forward, g_entropy, g_log_probs, g_features
    ):
        (_, _, mean, difference, squared, variance) = forward
        log_std = bank.log_std
        dims = bank.action_dims
        # Entropy branch (fires first): broadcast node sums the row
        # gradient, the scalar sum broadcasts back over the dimensions.
        g_entropy_sum = g_entropy.sum(axis=0)
        log_std_grad = np.broadcast_to(g_entropy_sum, (dims,)).copy()
        # Policy branch through the per-dimension log-density.
        g_per_dim = np.broadcast_to(
            np.expand_dims(g_log_probs, axis=-1), squared.shape
        )
        g_inner = g_per_dim * -0.5
        # The 2*log_std term inside the density fires before the variance
        # chain; both land on log_std after the entropy contribution.  The
        # graph sums each branch down to (dims,) at the node whose shape is
        # (dims,) — the doubled-log-std node for this branch, the variance
        # node for the next — so the sums sit exactly there, NOT at the
        # end of the chain (summation does not commute with the variance
        # multiply in floating point).
        np.add(log_std_grad, g_inner.sum(axis=0) * 2.0, out=log_std_grad)
        g_quadratic = g_inner / variance
        g_variance = (-g_inner * squared / (variance ** 2)).sum(axis=0)
        g_doubled = g_variance * variance
        np.add(log_std_grad, g_doubled * 2.0, out=log_std_grad)
        log_std._accumulate(log_std_grad)
        half = g_quadratic * difference
        g_difference = half + half
        g_mean = -g_difference
        g_mean_pre = g_mean * mean * (1.0 - mean)
        mean_head = bank.mean_head
        mean_head.bias._accumulate(g_mean_pre.sum(axis=0))
        g_features = g_features + g_mean_pre @ np.swapaxes(
            mean_head.weight.data, -1, -2
        )
        mean_head.weight._accumulate(
            np.swapaxes(features, -1, -2) @ g_mean_pre
        )
        return g_features
