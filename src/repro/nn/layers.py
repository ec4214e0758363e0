"""Parameters and the modules that hold them."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.initializers import xavier_init, zeros_init


class Parameter:
    """A trainable array and its gradient.

    ``grad`` is ``None`` until a backward pass accumulates into it.  Once
    an optimiser holds the parameter, ``data`` and ``_grad_buffer`` are
    views into that optimiser's flat buffers, and the first gradient of a
    step is copied into ``_grad_buffer`` instead of allocating.
    """

    __slots__ = ("data", "grad", "name", "_grad_buffer")

    def __init__(self, data, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._grad_buffer: Optional[np.ndarray] = None

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, gradient: np.ndarray) -> None:
        """``grad += gradient`` (``gradient`` has this parameter's shape)."""
        grad = self.grad
        if grad is None:
            buffer = self._grad_buffer
            if (
                buffer is not None
                and buffer.shape == gradient.shape
                and buffer.dtype == gradient.dtype
            ):
                np.copyto(buffer, gradient)
            else:
                buffer = gradient.copy()
                self._grad_buffer = buffer
            self.grad = buffer
        else:
            # ``grad`` is always privately owned (the copy above), so the
            # in-place add computes the same bits as ``grad + gradient``
            # without allocating.
            np.add(grad, gradient, out=grad)


class Module:
    """Base class with parameter collection and state (de)serialisation."""

    def parameters(self) -> List[Parameter]:
        found: List[Parameter] = []
        seen = set()

        def collect(obj) -> None:
            if isinstance(obj, Parameter):
                if id(obj) not in seen:
                    seen.add(id(obj))
                    found.append(obj)
            elif isinstance(obj, Module):
                for value in vars(obj).values():
                    collect(value)
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    collect(item)
            elif isinstance(obj, dict):
                for item in obj.values():
                    collect(item)

        collect(self)
        return found

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        return sum(parameter.data.size for parameter in self.parameters())

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            f"param_{index}": parameter.data.copy()
            for index, parameter in enumerate(self.parameters())
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        parameters = self.parameters()
        if len(state) != len(parameters):
            raise ValueError(
                f"state has {len(state)} entries but module has {len(parameters)}"
            )
        for index, parameter in enumerate(parameters):
            value = state[f"param_{index}"]
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {index}: "
                    f"{value.shape} vs {parameter.data.shape}"
                )
            parameter.data[...] = value


#: Elementwise activations by name, on plain numpy arrays.
ACTIVATIONS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "linear": lambda x: x,
}


class Dense(Module):
    """The weights of a fully connected layer ``y = activation(x @ W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "linear",
        rng: Optional[np.random.Generator] = None,
        weight_scale: float = 1.0,
    ):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.weight = Parameter(
            xavier_init(rng, (in_features, out_features)) * weight_scale,
            name=f"dense_w_{in_features}x{out_features}",
        )
        self.bias = Parameter(zeros_init(rng, (out_features,)), name="dense_b")


class MLP(Module):
    """The layers of a fully connected network, by hidden sizes.

    The paper's policy network is a 64x64 tanh FCNN; ``MLP(obs, [64, 64],
    out)`` builds exactly that.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int,
        activation: str = "tanh",
        output_activation: str = "linear",
        rng: Optional[np.random.Generator] = None,
        output_scale: float = 0.01,
    ):
        rng = rng or np.random.default_rng(0)
        sizes = [in_features] + list(hidden_sizes)
        self.layers: List[Dense] = [
            Dense(fan_in, fan_out, activation=activation, rng=rng)
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
        ]
        self.layers.append(
            Dense(
                sizes[-1],
                out_features,
                activation=output_activation,
                rng=rng,
                weight_scale=output_scale,
            )
        )
        self.in_features = in_features
        self.out_features = out_features
        self.hidden_sizes = tuple(hidden_sizes)
