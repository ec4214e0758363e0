"""A small reverse-mode autodiff and neural-network library on numpy.

The paper trains its policy and embedding networks with RLlib on top of
TensorFlow; offline we need the same functionality (dense layers, tanh/relu,
softmax policies, Adam) without external frameworks, so this package
implements:

* :class:`~repro.nn.tensor.Tensor` — a numpy array with a gradient and a
  recorded backward function (define-by-run reverse mode),
* :mod:`repro.nn.layers` — Dense layers, activations, an MLP container,
* :mod:`repro.nn.optim` — Adam over one flat parameter buffer,
* :mod:`repro.nn.losses` — MSE, cross-entropy, and the categorical/Gaussian
  log-probability helpers PPO needs.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn import ops
from repro.nn.initializers import normal_init, xavier_init, zeros_init
from repro.nn.layers import MLP, Dense, Module, Parameter, Sequential
from repro.nn.losses import (
    categorical_entropy,
    categorical_log_prob,
    cross_entropy_loss,
    gaussian_entropy,
    gaussian_log_prob,
    mse_loss,
)
from repro.nn.optim import Adam, Optimizer

__all__ = [
    "Tensor",
    "no_grad",
    "ops",
    "xavier_init",
    "normal_init",
    "zeros_init",
    "Parameter",
    "Module",
    "Dense",
    "Sequential",
    "MLP",
    "mse_loss",
    "cross_entropy_loss",
    "categorical_log_prob",
    "categorical_entropy",
    "gaussian_log_prob",
    "gaussian_entropy",
    "Optimizer",
    "Adam",
]
