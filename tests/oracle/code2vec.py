"""code2vec pretraining on the autodiff graph: the hand-written step's oracle.

:func:`code_vector` is the graph ``Code2VecModel.forward`` built before the
model moved to numpy, :func:`pretraining_loss` the graph of
``Code2VecPretrainer._train_one``'s loss (six cross-entropy heads, summed
in head order) and :func:`graph_train_one` that step walked by autodiff.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from oracle import ops
from oracle.layers import forward
from oracle.losses import cross_entropy_loss
from oracle.tensor import Tensor
from repro.embedding.ast_paths import PathContext


def code_vector(model, contexts: Sequence[PathContext]) -> Tensor:
    """The code vector for one loop (shape ``(code_vector_dim,)``)."""
    starts, paths, ends = model.encode_indices(contexts)
    start_vectors = ops.gather_rows(model.token_embeddings, starts)
    path_vectors = ops.gather_rows(model.path_embeddings, paths)
    end_vectors = ops.gather_rows(model.token_embeddings, ends)
    combined_inputs = ops.concatenate([start_vectors, path_vectors, end_vectors], axis=-1)
    combined = forward(model.combine, combined_inputs)  # (contexts, code_dim)
    scores = ops.matmul(combined, model.attention)  # (contexts, 1)
    weights = ops.softmax(ops.reshape(scores, (1, -1)), axis=-1)  # (1, contexts)
    pooled = ops.matmul(weights, combined)  # (1, code_dim)
    return ops.reshape(pooled, (model.config.code_vector_dim,))


def pretraining_loss(pretrainer, contexts: Sequence[PathContext], label) -> Tensor:
    """The sum over the pretext heads of each head's cross-entropy."""
    batched = ops.reshape(code_vector(pretrainer.model, contexts), (1, -1))
    targets = label.as_dict()
    total = None
    for name, head in pretrainer.heads.heads.items():
        loss = cross_entropy_loss(forward(head, batched), np.array([targets[name]]))
        total = loss if total is None else ops.add(total, loss)
    return total


def graph_train_one(pretrainer, contexts: Sequence[PathContext], label) -> float:
    """``Code2VecPretrainer._train_one`` with the gradients from the graph."""
    total = pretraining_loss(pretrainer, contexts, label)
    pretrainer.optimizer.zero_grad()
    total.backward()
    pretrainer.optimizer.clip_gradients(5.0)
    pretrainer.optimizer.step()
    return float(total.item())
