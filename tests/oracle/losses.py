"""Losses and distribution helpers on the oracle graph (categorical, Gaussian)."""

from __future__ import annotations

import numpy as np

from oracle import ops
from oracle.tensor import Tensor


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    difference = ops.sub(prediction, Tensor.ensure(target))
    return ops.mean(ops.mul(difference, difference))


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross entropy with integer class labels (mean over the batch)."""
    log_probabilities = ops.log_softmax(logits, axis=-1)
    picked = ops.take_along_last_axis(log_probabilities, np.asarray(labels))
    return ops.mul(ops.mean(picked), -1.0)


def categorical_log_prob(logits: Tensor, actions: np.ndarray) -> Tensor:
    """Log-probability of the chosen discrete actions under the logits."""
    log_probabilities = ops.log_softmax(logits, axis=-1)
    return ops.take_along_last_axis(log_probabilities, np.asarray(actions))


def categorical_entropy(logits: Tensor) -> Tensor:
    """Entropy of a categorical distribution, per batch row.

    Delegates to the fused :func:`oracle.ops.entropy_from_logits` node —
    bit-identical (forward and backward, including the gradient
    accumulation order into ``logits``) to the historical five-node chain
    ``mul(sum(mul(softmax, log_softmax), -1), -1.0)``, but one graph node.
    """
    return ops.entropy_from_logits(logits)


def gaussian_log_prob(mean: Tensor, log_std: Tensor, actions: np.ndarray) -> Tensor:
    """Log-density of ``actions`` under a diagonal Gaussian, summed over dims."""
    actions_tensor = Tensor.ensure(np.asarray(actions, dtype=np.float64))
    variance = ops.exp(ops.mul(log_std, 2.0))
    difference = ops.sub(actions_tensor, mean)
    quadratic = ops.div(ops.mul(difference, difference), variance)
    per_dimension = ops.mul(
        ops.add(ops.add(quadratic, ops.mul(log_std, 2.0)), float(np.log(2.0 * np.pi))),
        -0.5,
    )
    if len(per_dimension.shape) == 1:
        return per_dimension
    return ops.sum(per_dimension, axis=-1)


def gaussian_entropy(log_std: Tensor) -> Tensor:
    """Entropy of a diagonal Gaussian, summed over dimensions."""
    constant = 0.5 * float(np.log(2.0 * np.pi * np.e))
    per_dimension = ops.add(log_std, constant)
    if len(per_dimension.shape) == 1:
        return ops.sum(per_dimension)
    return ops.sum(per_dimension, axis=-1)
