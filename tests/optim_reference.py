"""The per-parameter Adam and gradient clipping, kept as the test oracle.

This is the optimiser ``repro.nn.optim`` ran before it moved to one flat
buffer per optimiser: per-parameter moments and scratch pairs in
``id()``-keyed dicts, 12 numpy ops per parameter per step.  The flat
optimiser must match it bit for bit (``tests/test_optim_identity.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np


class ReferenceAdam:
    """Per-parameter Adam with global-norm gradient clipping."""

    def __init__(
        self,
        parameters: Iterable,
        learning_rate: float = 5e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.parameters: List = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}
        self._scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def moments(self, parameter):
        return (
            self._first_moment.get(id(parameter)),
            self._second_moment.get(id(parameter)),
        )

    def clip_gradients(self, max_norm: float) -> float:
        """Global-norm gradient clipping; returns the pre-clip norm.

        The scale multiply happens in place (``grad * scale`` writes back
        into the gradient buffer — same bits, no allocation).
        """
        total = 0.0
        for parameter in self.parameters:
            if parameter.grad is not None:
                total += float(np.sum(parameter.grad ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for parameter in self.parameters:
                if parameter.grad is not None:
                    np.multiply(parameter.grad, scale, out=parameter.grad)
        return norm

    def step(self) -> None:
        self._step += 1
        beta1 = self.beta1
        beta2 = self.beta2
        one_minus_beta1 = 1 - beta1
        one_minus_beta2 = 1 - beta2
        bias1 = 1 - beta1 ** self._step
        bias2 = 1 - beta2 ** self._step
        learning_rate = self.learning_rate
        epsilon = self.epsilon
        for parameter in self.parameters:
            grad = parameter.grad
            if grad is None:
                continue
            key = id(parameter)
            first = self._first_moment.get(key)
            second = self._second_moment.get(key)
            buffers = self._scratch.get(key)
            if first is None:
                first = np.zeros_like(parameter.data)
                second = np.zeros_like(parameter.data)
                self._first_moment[key] = first
                self._second_moment[key] = second
            if buffers is None or buffers[0].shape != parameter.data.shape:
                buffers = (np.empty_like(parameter.data), np.empty_like(parameter.data))
                self._scratch[key] = buffers
            numerator, denominator = buffers
            # first = beta1 * first + (1 - beta1) * grad
            np.multiply(first, beta1, out=first)
            np.multiply(grad, one_minus_beta1, out=numerator)
            np.add(first, numerator, out=first)
            # second = beta2 * second + (1 - beta2) * grad**2
            # (numpy evaluates ``grad ** 2`` as ``grad * grad``)
            np.multiply(second, beta2, out=second)
            np.multiply(grad, grad, out=denominator)
            np.multiply(denominator, one_minus_beta2, out=denominator)
            np.add(second, denominator, out=second)
            # data -= lr * (first / bias1) / (sqrt(second / bias2) + eps)
            np.divide(first, bias1, out=numerator)
            np.multiply(numerator, learning_rate, out=numerator)
            np.divide(second, bias2, out=denominator)
            np.sqrt(denominator, out=denominator)
            np.add(denominator, epsilon, out=denominator)
            np.divide(numerator, denominator, out=numerator)
            np.subtract(parameter.data, numerator, out=parameter.data)
