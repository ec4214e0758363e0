"""Graph forwards of the ``repro.nn`` weight holders."""

from __future__ import annotations

from oracle import ops
from oracle.tensor import Tensor
from repro.nn.layers import MLP, Dense

_ACTIVATIONS = {
    "tanh": ops.tanh,
    "sigmoid": ops.sigmoid,
    "linear": lambda x: x,
}


def forward(module, inputs) -> Tensor:
    """``module`` (a :class:`Dense` or an :class:`MLP`) applied to ``inputs``
    on the graph, over the module's own parameters."""
    if isinstance(module, MLP):
        output = inputs
        for layer in module.layers:
            output = forward(layer, output)
        return output
    if isinstance(module, Dense):
        output = ops.add(ops.matmul(inputs, module.weight), module.bias)
        return _ACTIVATIONS[module.activation](output)
    raise TypeError(f"no graph forward for {type(module).__name__}")
