"""Reference implementations the runtime was written from, kept as test oracles.

The runtime computes every forward and backward pass in plain numpy: the
PPO minibatch step in :class:`repro.rl.fused_update.FusedUpdater`, code2vec
and its pretraining step in :mod:`repro.embedding`.  It prices a pragma
task's decision map on the kernel's cached IR, never through the pragma
text.  This package holds the paths they were written from — the
define-by-run reverse-mode graph and the pragma-text pricing path — and
each runtime pass must match its oracle bit for bit:

* :mod:`oracle.tensor` — :class:`Tensor` and its backward walk; a
  :class:`repro.nn.layers.Parameter` enters a graph as a leaf that shares
  its array and receives its gradient,
* :mod:`oracle.ops`, :mod:`oracle.losses` — the differentiable operations,
  losses and distribution helpers,
* :mod:`oracle.layers` — ``Dense``/``MLP`` forwards,
* :mod:`oracle.policy` — the policies' ``evaluate`` and the PPO
  minibatch step (``graph_update_minibatch``),
* :mod:`oracle.code2vec` — the code2vec forward and the pretraining step,
* :mod:`oracle.measure` — the pragma-text pricing path a pragma task's
  whole-kernel application must match (parse the annotated source, honour
  each loop's pragma, plan, simulate).

Tests import it as ``oracle`` (``tests/`` is on ``sys.path`` under
pytest); scripts outside ``tests/`` put ``tests/`` on ``sys.path`` first.
"""

from oracle import ops
from oracle.tensor import Tensor
from oracle.losses import (
    categorical_entropy,
    categorical_log_prob,
    cross_entropy_loss,
    gaussian_entropy,
    gaussian_log_prob,
    mse_loss,
)
from oracle.layers import forward
from oracle.policy import evaluate, graph_update_minibatch
from oracle.code2vec import code_vector, graph_train_one, pretraining_loss
from oracle.measure import annotate, factors_from_pragma, lower_source, measure_annotated

__all__ = [
    "ops",
    "Tensor",
    "categorical_entropy",
    "categorical_log_prob",
    "cross_entropy_loss",
    "gaussian_entropy",
    "gaussian_log_prob",
    "mse_loss",
    "forward",
    "evaluate",
    "graph_update_minibatch",
    "code_vector",
    "graph_train_one",
    "pretraining_loss",
    "annotate",
    "factors_from_pragma",
    "lower_source",
    "measure_annotated",
]
