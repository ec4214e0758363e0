"""Reverse-mode automatic differentiation over numpy arrays (test oracle)."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.nn.layers import Parameter

ArrayLike = Union[np.ndarray, float, int, Sequence[float]]


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation.

    Operations record their inputs and a backward closure; calling
    :meth:`backward` on a scalar result walks the recorded graph in reverse
    topological order accumulating gradients into ``grad``.  A leaf built
    by :meth:`ensure` from a :class:`~repro.nn.layers.Parameter` shares the
    parameter's array and sends its gradient to ``parameter.grad``, so a
    graph runs on a module's own weights.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_sink")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        sink: Optional[Parameter] = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward = backward
        self._parents = parents if requires_grad else ()
        self._sink = sink

    @staticmethod
    def ensure(value: Union["Tensor", Parameter, ArrayLike]) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        if isinstance(value, Parameter):
            return Tensor(value.data, requires_grad=True, sink=value)
        return Tensor(value)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    # -- graph mechanics ------------------------------------------------------------

    def _accumulate(self, gradient: np.ndarray) -> None:
        gradient = _unbroadcast(gradient, self.data.shape)
        if self._sink is not None:
            self._sink._accumulate(gradient)
        elif self.grad is None:
            self.grad = gradient.copy()
        else:
            self.grad = self.grad + gradient

    def backward(self, gradient: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self) = 1)."""
        if gradient is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=np.float64)

        ordering: List[Tensor] = []
        visited: Set[int] = set()

        def topological(node: "Tensor") -> None:
            if id(node) in visited or not node.requires_grad:
                return
            visited.add(id(node))
            for parent in node._parents:
                topological(parent)
            ordering.append(node)

        topological(self)
        self._accumulate(gradient)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- the operators the tests use (thin wrappers over oracle.ops) ------------------

    def __add__(self, other):  # noqa: D105
        from oracle import ops

        return ops.add(self, other)

    def __mul__(self, other):  # noqa: D105
        from oracle import ops

        return ops.mul(self, other)


def _unbroadcast(gradient: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``gradient`` down to ``shape`` (reverse of numpy broadcasting)."""
    if gradient.shape == shape:
        return gradient
    # Remove leading broadcast dimensions.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)
