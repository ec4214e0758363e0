"""Trainable parameters, the modules that hold them, and their optimisers.

The paper trains its policy and embedding networks with RLlib on top of
TensorFlow.  Here every forward and backward pass is written out in numpy
where it runs (``repro.rl.fused_update`` for the PPO update,
``repro.embedding`` for code2vec and its pretraining), so this package
only holds the weights and updates them:

* :class:`~repro.nn.layers.Parameter` — an array and its gradient,
* :mod:`repro.nn.layers` — the ``Module`` base, ``Dense`` and ``MLP``
  weight holders and the numpy activations,
* :mod:`repro.nn.initializers` — weight initialisers,
* :mod:`repro.nn.optim` — Adam over one flat parameter buffer.

The autodiff graph that checks those hand-written passes lives with the
tests, in ``tests/oracle``.
"""

from repro.nn.initializers import normal_init, xavier_init, zeros_init
from repro.nn.layers import ACTIVATIONS, MLP, Dense, Module, Parameter
from repro.nn.optim import Adam, Optimizer

__all__ = [
    "xavier_init",
    "normal_init",
    "zeros_init",
    "ACTIVATIONS",
    "Parameter",
    "Module",
    "Dense",
    "MLP",
    "Optimizer",
    "Adam",
]
