"""Differentiable operations on :class:`oracle.tensor.Tensor` (test oracle)."""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from oracle.tensor import ArrayLike, Tensor
from repro.nn.layers import Parameter
from repro.rl.fused_update import (
    _entropy_backward,
    _ppo_surrogate_backward,
    _ppo_surrogate_forward,
)

TensorLike = Union[Tensor, Parameter, ArrayLike]


def _make(data: np.ndarray, parents: Tuple[Tensor, ...], backward) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    result = Tensor(data, requires_grad=requires)
    if requires:
        result._parents = tuple(p for p in parents if p.requires_grad)
        result._backward = backward
    return result


# -- elementwise arithmetic -----------------------------------------------------------


def add(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out_data = a.data + b.data

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient)
        if b.requires_grad:
            b._accumulate(gradient)

    return _make(out_data, (a, b), backward)


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out_data = a.data - b.data

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient)
        if b.requires_grad:
            b._accumulate(-gradient)

    return _make(out_data, (a, b), backward)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out_data = a.data * b.data

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient * b.data)
        if b.requires_grad:
            b._accumulate(gradient * a.data)

    return _make(out_data, (a, b), backward)


def div(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out_data = a.data / b.data

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient / b.data)
        if b.requires_grad:
            b._accumulate(-gradient * a.data / (b.data ** 2))

    return _make(out_data, (a, b), backward)


def exp(a: TensorLike) -> Tensor:
    a = Tensor.ensure(a)
    out_data = np.exp(a.data)

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient * out_data)

    return _make(out_data, (a,), backward)


def log(a: TensorLike) -> Tensor:
    a = Tensor.ensure(a)
    out_data = np.log(np.maximum(a.data, 1e-12))

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient / np.maximum(a.data, 1e-12))

    return _make(out_data, (a,), backward)


def clip(a: TensorLike, low: float, high: float) -> Tensor:
    a = Tensor.ensure(a)
    out_data = np.clip(a.data, low, high)

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            mask = (a.data >= low) & (a.data <= high)
            a._accumulate(gradient * mask)

    return _make(out_data, (a,), backward)


def minimum(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out_data = np.minimum(a.data, b.data)

    def backward(gradient: np.ndarray) -> None:
        mask = a.data <= b.data
        if a.requires_grad:
            a._accumulate(gradient * mask)
        if b.requires_grad:
            b._accumulate(gradient * (~mask))

    return _make(out_data, (a, b), backward)


def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out_data = np.maximum(a.data, b.data)

    def backward(gradient: np.ndarray) -> None:
        mask = a.data >= b.data
        if a.requires_grad:
            a._accumulate(gradient * mask)
        if b.requires_grad:
            b._accumulate(gradient * (~mask))

    return _make(out_data, (a, b), backward)


# -- activations ---------------------------------------------------------------------


def tanh(a: TensorLike) -> Tensor:
    a = Tensor.ensure(a)
    out_data = np.tanh(a.data)

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient * (1.0 - out_data ** 2))

    return _make(out_data, (a,), backward)


def sigmoid(a: TensorLike) -> Tensor:
    a = Tensor.ensure(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def softmax(a: TensorLike, axis: int = -1) -> Tensor:
    a = Tensor.ensure(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            dot = (gradient * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (gradient - dot))

    return _make(out_data, (a,), backward)


def log_softmax(a: TensorLike, axis: int = -1) -> Tensor:
    a = Tensor.ensure(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            softmax_values = np.exp(out_data)
            total = gradient.sum(axis=axis, keepdims=True)
            a._accumulate(gradient - softmax_values * total)

    return _make(out_data, (a,), backward)


# -- linear algebra, shaping, reductions ------------------------------------------------


def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out_data = a.data @ b.data

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            grad_a = gradient @ np.swapaxes(b.data, -1, -2)
            a._accumulate(grad_a)
        if b.requires_grad:
            grad_b = np.swapaxes(a.data, -1, -2) @ gradient
            b._accumulate(grad_b)

    return _make(out_data, (a, b), backward)


def reshape(a: TensorLike, shape: Sequence[int]) -> Tensor:
    a = Tensor.ensure(a)
    original_shape = a.data.shape
    out_data = a.data.reshape(shape)

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient.reshape(original_shape))

    return _make(out_data, (a,), backward)


def concatenate(tensors: Sequence[TensorLike], axis: int = -1) -> Tensor:
    items = [Tensor.ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in items], axis=axis)
    sizes = [t.data.shape[axis] for t in items]

    def backward(gradient: np.ndarray) -> None:
        offsets = np.cumsum([0] + sizes)
        for tensor, start, end in zip(items, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slices = [slice(None)] * gradient.ndim
                slices[axis] = slice(start, end)
                tensor._accumulate(gradient[tuple(slices)])

    return _make(out_data, tuple(items), backward)


def slice_last_axis(a: TensorLike, start: int, stop: int) -> Tensor:
    """``a[..., start:stop]`` — reads one head's columns out of a fused
    logits matrix (the batched-heads counterpart of :func:`concatenate`)."""
    a = Tensor.ensure(a)
    out_data = a.data[..., start:stop]

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            grad[..., start:stop] = gradient
            a._accumulate(grad)

    return _make(out_data, (a,), backward)


def broadcast_to(a: TensorLike, shape: Sequence[int]) -> Tensor:
    """Broadcast ``a`` to ``shape``; the gradient sums back over the
    broadcast axes (``_accumulate`` un-broadcasts)."""
    a = Tensor.ensure(a)
    out_data = np.broadcast_to(a.data, tuple(shape)).copy()

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(gradient)

    return _make(out_data, (a,), backward)


def sum(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = Tensor.ensure(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            grad = gradient
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            a._accumulate(np.broadcast_to(grad, a.data.shape))

    return _make(out_data, (a,), backward)


def mean(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:
    a = Tensor.ensure(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            grad = gradient / count
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            a._accumulate(np.broadcast_to(grad, a.data.shape))

    return _make(out_data, (a,), backward)


def gather_rows(a: TensorLike, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor (embedding lookup): output[i] = a[idx[i]]."""
    a = Tensor.ensure(a)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = a.data[indices]

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            np.add.at(grad, indices, gradient)
            a._accumulate(grad)

    return _make(out_data, (a,), backward)


def take_along_last_axis(a: TensorLike, indices: np.ndarray) -> Tensor:
    """Pick one element per row along the last axis (used for log-prob of the
    chosen discrete action)."""
    a = Tensor.ensure(a)
    indices = np.asarray(indices, dtype=np.int64)
    expanded = indices.reshape(indices.shape + (1,))
    out_data = np.take_along_axis(a.data, expanded, axis=-1).squeeze(-1)

    def backward(gradient: np.ndarray) -> None:
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            np.put_along_axis(
                grad, expanded, gradient.reshape(gradient.shape + (1,)), axis=-1
            )
            a._accumulate(grad)

    return _make(out_data, (a,), backward)


# -- fused composites -----------------------------------------------------------------
#
# One graph node for an op *chain* the PPO update runs per minibatch.  The
# forward/backward helpers replicate the exact numpy call sequence (and
# gradient accumulation order) of the equivalent chain of primitive ops, so
# swapping a chain for its fused op changes no bits — only the number of
# Python-level nodes the backward pass walks.  The surrogate and entropy
# backward helpers are the ones the hand-written update kernel in
# ``repro.rl.fused_update`` runs.


def ppo_surrogate(
    log_probs: TensorLike,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_low: float,
    clip_high: float,
) -> Tensor:
    """The clipped PPO policy loss as ONE graph node.

    Equivalent — bit-for-bit, forward and backward — to::

        ratio = exp(sub(log_probs, old))
        mul(mean(minimum(mul(ratio, adv),
                         mul(clip(ratio, lo, hi), adv))), -1.0)

    but builds a single node instead of seven.
    """
    log_probs = Tensor.ensure(log_probs)
    old = np.asarray(old_log_probs, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    loss, ratio, unclipped, clipped = _ppo_surrogate_forward(
        log_probs.data, old, advantages, clip_low, clip_high
    )

    def backward(gradient: np.ndarray) -> None:
        if log_probs.requires_grad:
            log_probs._accumulate(
                _ppo_surrogate_backward(
                    gradient, ratio, unclipped, clipped, advantages, clip_low, clip_high
                )
            )

    return _make(np.asarray(loss), (log_probs,), backward)


def _entropy_forward(logits):
    """Forward pass of per-row categorical entropy from raw logits; returns
    the entropy plus the log-softmax/softmax arrays its backward needs."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_softmax_values = shifted - log_sum
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=-1, keepdims=True)
    entropy = (probs * log_softmax_values).sum(axis=-1) * -1.0
    return entropy, log_softmax_values, probs


def entropy_from_logits(logits: TensorLike) -> Tensor:
    """Per-row categorical entropy as ONE graph node.

    Bit-identical (values and gradients) to the five-node chain
    ``mul(sum(mul(softmax(x), log_softmax(x)), -1), -1.0)`` that
    :func:`oracle.losses.categorical_entropy` historically built.
    """
    logits = Tensor.ensure(logits)
    entropy, log_softmax_values, probs = _entropy_forward(logits.data)

    def backward(gradient: np.ndarray) -> None:
        if logits.requires_grad:
            logits._accumulate(
                _entropy_backward(gradient, log_softmax_values, probs)
            )

    return _make(entropy, (logits,), backward)
