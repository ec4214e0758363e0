"""Layers and module containers."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nn import ops
from repro.nn.initializers import xavier_init, zeros_init
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor that an optimiser should update."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


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
        return sum(parameter.size for parameter in self.parameters())

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

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


_ACTIVATIONS: Dict[str, Callable[[Tensor], Tensor]] = {
    "relu": ops.relu,
    "tanh": ops.tanh,
    "sigmoid": ops.sigmoid,
    "linear": lambda x: x,
}


class Dense(Module):
    """A fully connected layer ``y = activation(x @ W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "linear",
        rng: Optional[np.random.Generator] = None,
        weight_scale: float = 1.0,
    ):
        if activation not in _ACTIVATIONS:
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

    def forward(self, inputs: Tensor) -> Tensor:
        output = ops.add(ops.matmul(inputs, self.weight), self.bias)
        return _ACTIVATIONS[self.activation](output)


class Sequential(Module):
    """Applies a list of modules in order."""

    def __init__(self, layers: Sequence[Module]):
        self.layers = list(layers)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for layer in self.layers:
            output = layer(output)
        return output


class MLP(Module):
    """A fully connected network described by a list of hidden sizes.

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
        layers: List[Module] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            layers.append(Dense(fan_in, fan_out, activation=activation, rng=rng))
        layers.append(
            Dense(
                sizes[-1],
                out_features,
                activation=output_activation,
                rng=rng,
                weight_scale=output_scale,
            )
        )
        self.network = Sequential(layers)
        self.in_features = in_features
        self.out_features = out_features
        self.hidden_sizes = tuple(hidden_sizes)

    def forward(self, inputs: Tensor) -> Tensor:
        return self.network(inputs)
