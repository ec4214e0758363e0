"""Gradient-descent optimisers over one flat buffer per optimiser.

An optimiser owns one contiguous ``float64`` buffer each for its
parameters' values and gradients (plus Adam's two moments and two scratch
arrays).  Every managed ``Parameter.data`` and ``Parameter._grad_buffer``
is a view into those buffers, each view starting on a 64-byte boundary
(the zero padding between views stays zero under every update).  So an
update runs its in-place numpy ops once per *run* — a maximal stretch of
consecutive parameters that have a gradient — not once per parameter.
Runs are cached per active-set pattern; for a task-conditioned policy
they are the trunk, one task's embedding row and one head stack.

Invariants that keep every update bit-identical to the per-parameter loop
(``tests/optim_reference.py`` holds that loop as the test oracle):

* Only parameters whose ``grad`` is not ``None`` are touched; the others
  keep their values and moments (which start as zeros, like the lazily
  created per-parameter moments they replace).
* ``clip_gradients`` sums squares per parameter, in list order: one
  ``np.sum`` reduction over each parameter's reshaped slice of the squared
  scratch, never one dot over the flat buffer (which would round
  differently).
* A ``.grad`` or ``.data`` that is not this optimiser's own view —
  assigned directly, or re-homed by another optimiser over the same
  parameter — is copied into the view and re-homed at the next
  ``clip_gradients``/``step``.  Write parameter values in place
  (``parameter.data[...] = value``); a rebound ``.data`` is detached
  from the optimiser until then.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.nn.layers import Parameter

#: float64 elements per 64-byte boundary.
_ALIGN = 8


def _aligned_zeros(size: int) -> np.ndarray:
    """A zeroed float64 vector whose first element sits on a 64-byte boundary."""
    raw = np.zeros(size + _ALIGN, dtype=np.float64)
    shift = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[shift : shift + size]


class _Runs(NamedTuple):
    """The update runs of one active-set pattern."""

    #: Indices of the parameters that have a gradient, in list order.
    active: Tuple[int, ...]
    #: One flat-buffer slice per run of consecutive active parameters.
    slices: List[slice]
    #: Each active parameter's reshaped view of the squared scratch.
    squares: List[np.ndarray]


class Optimizer:
    """Base class: lays the parameters out flat and clips gradients."""

    def __init__(self, parameters: Iterable[Parameter], learning_rate: float):
        self.parameters: List[Parameter] = list(parameters)
        self.learning_rate = learning_rate
        self._positions: Dict[int, int] = {}
        self._spans: List[slice] = []
        total = 0
        for index, parameter in enumerate(self.parameters):
            first = self._positions.setdefault(id(parameter), index)
            if first != index:
                raise ValueError(
                    f"parameter {parameter.name or '<unnamed>'!r} is listed "
                    f"twice (positions {first} and {index}); an optimiser "
                    "would step it twice and count its gradient twice"
                )
            self._spans.append(slice(total, total + parameter.data.size))
            total += -(-parameter.data.size // _ALIGN) * _ALIGN
        self._flat_data = _aligned_zeros(total)
        self._flat_grad = _aligned_zeros(total)
        self._scratch = _aligned_zeros(total)
        self._data_views: List[np.ndarray] = []
        self._grad_views: List[np.ndarray] = []
        for parameter, span in zip(self.parameters, self._spans):
            data = self._flat_data[span].reshape(parameter.data.shape)
            data[...] = parameter.data
            parameter.data = data
            grad = self._flat_grad[span].reshape(data.shape)
            parameter._grad_buffer = grad
            self._data_views.append(data)
            self._grad_views.append(grad)
        self._run_cache: Dict[Tuple[bool, ...], _Runs] = {}

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _runs(self) -> _Runs:
        """Re-home foreign arrays and return the runs of the active set."""
        pattern = []
        for parameter, data, grad in zip(
            self.parameters, self._data_views, self._grad_views
        ):
            current = parameter.grad
            if current is None:
                pattern.append(False)
                continue
            pattern.append(True)
            if current is not grad:
                np.copyto(grad, current)
                parameter.grad = grad
                parameter._grad_buffer = grad
            if parameter.data is not data:
                np.copyto(data, parameter.data)
                parameter.data = data
        key = tuple(pattern)
        runs = self._run_cache.get(key)
        if runs is None:
            active = tuple(index for index, flag in enumerate(key) if flag)
            slices: List[slice] = []
            for index in active:
                span = self._spans[index]
                if index and key[index - 1]:
                    slices[-1] = slice(slices[-1].start, span.stop)
                else:
                    slices.append(span)
            squares = [
                self._scratch[self._spans[index]].reshape(self._data_views[index].shape)
                for index in active
            ]
            runs = self._run_cache[key] = _Runs(active, slices, squares)
        return runs

    def clip_gradients(self, max_norm: float) -> float:
        """Global-norm gradient clipping; returns the pre-clip norm.

        The squares are summed per parameter, in list order, and the scale
        multiply happens in place on each run (same bits as scaling every
        gradient on its own).
        """
        runs = self._runs()
        flat_grad = self._flat_grad
        scratch = self._scratch
        for span in runs.slices:
            np.multiply(flat_grad[span], flat_grad[span], out=scratch[span])
        total = 0.0
        for squares in runs.squares:
            # ``np.sum``'s own reduction, without its Python wrapper.
            total += float(np.add.reduce(squares, axis=None))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for span in runs.slices:
                grad = flat_grad[span]
                np.multiply(grad, scale, out=grad)
        return norm


class Adam(Optimizer):
    """Adam (the optimiser RLlib's PPO uses by default).

    Every step runs fully in place on the flat buffers, once per run: the
    moments are updated where they live, and two scratch buffers carry
    the bias-corrected estimates and the final update, so a step allocates
    nothing.  Each in-place expression mirrors the allocating formula term
    by term (same operations, same order), so the trained weights and
    moment state are bit-identical to the historical allocating
    implementation::

        first  = beta1 * first + (1 - beta1) * grad
        second = beta2 * second + (1 - beta2) * grad**2
        data  -= lr * (first / bias1) / (sqrt(second / bias2) + eps)
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float = 5e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        super().__init__(parameters, learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        size = self._flat_data.size
        self._first = _aligned_zeros(size)
        self._second = _aligned_zeros(size)
        self._denominator = _aligned_zeros(size)
        self._stepped: Set[int] = set()

    def moments(
        self, parameter: Parameter
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``(first, second)`` moment views of ``parameter``.

        ``(None, None)`` for a parameter this optimiser has never stepped
        (including one it does not hold).
        """
        index = self._positions.get(id(parameter))
        if index is None or index not in self._stepped:
            return None, None
        span, shape = self._spans[index], self._data_views[index].shape
        return self._first[span].reshape(shape), self._second[span].reshape(shape)

    def step(self) -> None:
        runs = self._runs()
        self._stepped.update(runs.active)
        self._step += 1
        beta1 = self.beta1
        beta2 = self.beta2
        one_minus_beta1 = 1 - beta1
        one_minus_beta2 = 1 - beta2
        bias1 = 1 - beta1 ** self._step
        bias2 = 1 - beta2 ** self._step
        learning_rate = self.learning_rate
        epsilon = self.epsilon
        for span in runs.slices:
            data = self._flat_data[span]
            grad = self._flat_grad[span]
            first = self._first[span]
            second = self._second[span]
            numerator = self._scratch[span]
            denominator = self._denominator[span]
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
            np.subtract(data, numerator, out=data)
