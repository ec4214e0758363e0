"""The code2vec attention model over path contexts.

Architecture (Alon et al. 2019, as used by the paper):

1. embed the start token, the path and the end token of every context,
2. concatenate and pass through a fully connected layer with tanh to get a
   *combined context vector*,
3. compute attention weights with a learned global attention vector,
4. the *code vector* is the attention-weighted sum of combined context
   vectors (340 features, matching §3.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.embedding.ast_paths import PathContext
from repro.embedding.vocab import Vocabulary
from repro.nn.initializers import normal_init
from repro.nn.layers import Dense, Module, Parameter


@dataclass
class Code2VecConfig:
    """Hyperparameters of the embedding network."""

    token_embedding_dim: int = 64
    path_embedding_dim: int = 64
    code_vector_dim: int = 340
    max_contexts: int = 200
    seed: int = 0


class Code2VecForward(NamedTuple):
    """One loop's forward pass: its context indices and activations."""

    starts: np.ndarray
    paths: np.ndarray
    ends: np.ndarray
    #: ``(contexts, 2 * token_dim + path_dim)`` concatenated embeddings.
    inputs: np.ndarray
    #: ``(contexts, code_dim)`` combined context vectors.
    combined: np.ndarray
    #: ``(1, contexts)`` attention weights.
    weights: np.ndarray
    #: ``(1, code_dim)`` attention-pooled code vector.
    code_vector: np.ndarray


class Code2VecModel(Module):
    """Maps a bag of path contexts to a fixed-length code vector."""

    def __init__(
        self,
        token_vocab: Vocabulary,
        path_vocab: Vocabulary,
        config: Optional[Code2VecConfig] = None,
    ):
        self.config = config or Code2VecConfig()
        self.token_vocab = token_vocab
        self.path_vocab = path_vocab
        rng = np.random.default_rng(self.config.seed)
        token_dim = self.config.token_embedding_dim
        path_dim = self.config.path_embedding_dim
        code_dim = self.config.code_vector_dim

        self.token_embeddings = Parameter(
            normal_init(rng, (len(token_vocab), token_dim), scale=0.1),
            name="token_embeddings",
        )
        self.path_embeddings = Parameter(
            normal_init(rng, (len(path_vocab), path_dim), scale=0.1),
            name="path_embeddings",
        )
        self.combine = Dense(
            2 * token_dim + path_dim, code_dim, activation="tanh", rng=rng
        )
        self.attention = Parameter(
            normal_init(rng, (code_dim, 1), scale=0.1), name="attention"
        )

    # -- encoding ---------------------------------------------------------------

    def encode_indices(self, contexts: Sequence[PathContext]):
        """Vocabulary indices (starts, paths, ends) for a context bag."""
        contexts = list(contexts)[: self.config.max_contexts]
        if not contexts:
            return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(
                1, dtype=np.int64
            )
        starts = np.array(
            [self.token_vocab.lookup(c.start_token) for c in contexts], dtype=np.int64
        )
        paths = np.array(
            [self.path_vocab.lookup(c.path) for c in contexts], dtype=np.int64
        )
        ends = np.array(
            [self.token_vocab.lookup(c.end_token) for c in contexts], dtype=np.int64
        )
        return starts, paths, ends

    def forward(self, contexts: Sequence[PathContext]) -> Code2VecForward:
        """The forward pass for one loop, keeping what the backward needs.

        The products stay ``@`` (BLAS) and the softmax max-shifted: the
        tests hold this pass bit-identical to the autodiff oracle, and the
        pretraining digests hash what it computes.
        """
        starts, paths, ends = self.encode_indices(contexts)
        tokens = self.token_embeddings.data
        inputs = np.concatenate(
            [tokens[starts], self.path_embeddings.data[paths], tokens[ends]], axis=-1
        )
        combine = self.combine
        combined = np.tanh(inputs @ combine.weight.data + combine.bias.data)
        scores = (combined @ self.attention.data).reshape(1, -1)
        exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = exps / exps.sum(axis=-1, keepdims=True)
        return Code2VecForward(
            starts, paths, ends, inputs, combined, weights, weights @ combined
        )

    def accumulate_gradients(
        self, forward: Code2VecForward, code_gradient: np.ndarray
    ) -> None:
        """Accumulate ``d loss / d parameter`` given ``d loss / d code vector``.

        Contributions land in the autodiff graph's reverse topological
        order: into the combined contexts the value path (``weights @
        combined``) before the score path, and into the token table the
        end tokens before the start tokens, each scattered through its own
        zeroed table.
        """
        combined, weights = forward.combined, forward.weights
        # code_vector = weights @ combined
        g_weights = code_gradient @ combined.T
        g_combined = weights.T @ code_gradient
        # weights = softmax(scores)
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores = (weights * (g_weights - dot)).reshape(-1, 1)
        # scores = combined @ attention
        g_combined += g_scores @ self.attention.data.T
        self.attention._accumulate(combined.T @ g_scores)
        # combined = tanh(inputs @ W + b)
        g_linear = g_combined * (1.0 - combined ** 2)
        combine = self.combine
        combine.bias._accumulate(g_linear.sum(axis=0))
        g_inputs = g_linear @ combine.weight.data.T
        combine.weight._accumulate(forward.inputs.T @ g_linear)
        # inputs = [tokens[starts], paths[paths], tokens[ends]]
        token_dim = self.config.token_embedding_dim
        path_end = token_dim + self.config.path_embedding_dim
        for table, indices, gradient in (
            (self.token_embeddings, forward.ends, g_inputs[:, path_end:]),
            (self.path_embeddings, forward.paths, g_inputs[:, token_dim:path_end]),
            (self.token_embeddings, forward.starts, g_inputs[:, :token_dim]),
        ):
            scattered = np.zeros_like(table.data)
            np.add.at(scattered, indices, gradient)
            table._accumulate(scattered)

    def embed(self, contexts: Sequence[PathContext]) -> np.ndarray:
        """The code vector for one loop (shape ``(code_vector_dim,)``)."""
        return self.forward(contexts).code_vector.reshape(-1)

    def attention_weights(self, contexts: Sequence[PathContext]) -> np.ndarray:
        """The attention distribution over contexts (for interpretability)."""
        return self.forward(contexts).weights.reshape(-1)
