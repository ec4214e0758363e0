"""Self-supervised pretraining of the embedding network.

The original code2vec is pretrained on method-name prediction over millions
of Java methods; no such corpus is available offline, so the embedding is
pretrained to predict *structural loop properties* that are computed directly
from the analysis passes (reduction presence, access-pattern class, element
type, nesting depth, predication).  The pretext task forces the code vector
to separate loops along exactly the axes that matter for choosing VF/IF,
which is the property the RL agent relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.loopinfo import LoopAnalysis
from repro.embedding.ast_paths import PathContext
from repro.embedding.code2vec import Code2VecModel
from repro.nn.layers import Dense, Module
from repro.nn.optim import Adam


#: The pretraining heads: name -> number of classes.
PROPERTY_HEADS: Dict[str, int] = {
    "has_reduction": 2,
    "access_kind": 4,      # contiguous / strided / gather / none
    "element_width": 4,    # 8 / 16 / 32 / 64 bit
    "is_float": 2,
    "has_predicate": 2,
    "nest_depth": 4,       # 1 / 2 / 3 / deeper
}


@dataclass
class LoopPropertyLabels:
    """Integer labels for each pretraining head."""

    has_reduction: int
    access_kind: int
    element_width: int
    is_float: int
    has_predicate: int
    nest_depth: int

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def loop_property_labels(analysis: LoopAnalysis) -> LoopPropertyLabels:
    """Derive pretraining labels from a loop analysis (no human labels)."""
    if analysis.gather_accesses:
        access_kind = 2
    elif analysis.strided_accesses:
        access_kind = 1
    elif analysis.contiguous_accesses:
        access_kind = 0
    else:
        access_kind = 3
    width_map = {8: 0, 16: 1, 32: 2, 64: 3}
    is_float = int(
        any(p.access.dtype.is_float for p in analysis.access_patterns)
        or any(r.is_float for r in analysis.reductions)
    )
    depth = min(4, len(analysis.enclosing_vars) + 1)
    return LoopPropertyLabels(
        has_reduction=int(analysis.has_reduction),
        access_kind=access_kind,
        element_width=width_map.get(analysis.element_bits, 2),
        is_float=is_float,
        has_predicate=int(analysis.has_predicates),
        nest_depth=depth - 1,
    )


class _PropertyHeads(Module):
    """Linear classification heads on top of the code vector."""

    def __init__(self, code_dim: int, rng: np.random.Generator):
        self.heads: Dict[str, Dense] = {
            name: Dense(code_dim, classes, rng=rng)
            for name, classes in PROPERTY_HEADS.items()
        }

    def logits(self, code_vector: np.ndarray) -> Dict[str, np.ndarray]:
        """Each head's ``(1, classes)`` logits for a ``(1, code_dim)`` vector."""
        return {
            name: code_vector @ head.weight.data + head.bias.data
            for name, head in self.heads.items()
        }


@dataclass
class PretrainResult:
    """Loss curve of a pretraining run (:meth:`Code2VecPretrainer.evaluate`
    scores the heads' accuracy on demand)."""

    losses: List[float] = field(default_factory=list)
    steps: int = 0


class Code2VecPretrainer:
    """Trains a :class:`Code2VecModel` on the loop-property pretext task."""

    def __init__(
        self,
        model: Code2VecModel,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ):
        self.model = model
        rng = np.random.default_rng(seed)
        self.heads = _PropertyHeads(model.config.code_vector_dim, rng)
        self.optimizer = Adam(
            self.model.parameters() + self.heads.parameters(), learning_rate
        )
        self.rng = np.random.default_rng(seed)

    def train(
        self,
        context_bags: Sequence[Sequence[PathContext]],
        labels: Sequence[LoopPropertyLabels],
        epochs: int = 3,
        log_every: int = 0,
    ) -> PretrainResult:
        """Run pretraining over the corpus; returns the loss curve."""
        if len(context_bags) != len(labels):
            raise ValueError("context_bags and labels must be the same length")
        result = PretrainResult()
        indices = np.arange(len(context_bags))
        for _ in range(epochs):
            self.rng.shuffle(indices)
            for index in indices:
                loss_value = self._train_one(context_bags[index], labels[index])
                result.losses.append(loss_value)
                result.steps += 1
        return result

    def _train_one(
        self, contexts: Sequence[PathContext], label: LoopPropertyLabels
    ) -> float:
        """One Adam step on one loop: the sum of the heads' cross-entropies.

        The backward is written out by hand and matches the autodiff graph
        of the same loss bit for bit (the graph is the tests' oracle): the
        heads feed the code vector's gradient from the last head to the
        first, and each bias gradient is a ``sum(axis=0)``.
        """
        forward = self.model.forward(contexts)
        code_vector = forward.code_vector
        targets = label.as_dict()
        total = None
        head_gradients = []
        for name, logits in self.heads.logits(code_vector).items():
            shifted = logits - logits.max(axis=-1, keepdims=True)
            log_softmax = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            target = targets[name]
            loss = log_softmax[0, target] * -1.0
            total = loss if total is None else total + loss
            # d loss / d logits = softmax - one_hot(target)
            gradient = np.exp(log_softmax)
            gradient[0, target] -= 1.0
            head_gradients.append((self.heads.heads[name], gradient))
        self.optimizer.zero_grad()
        code_gradient = None
        for head, gradient in reversed(head_gradients):
            head.bias._accumulate(gradient.sum(axis=0))
            contribution = gradient @ head.weight.data.T
            head.weight._accumulate(code_vector.T @ gradient)
            if code_gradient is None:
                code_gradient = contribution
            else:
                code_gradient += contribution
        self.model.accumulate_gradients(forward, code_gradient)
        self.optimizer.clip_gradients(5.0)
        self.optimizer.step()
        return float(total)

    def evaluate(
        self,
        context_bags: Sequence[Sequence[PathContext]],
        labels: Sequence[LoopPropertyLabels],
    ) -> Dict[str, float]:
        """Per-head accuracy over a labelled corpus."""
        correct: Dict[str, int] = {name: 0 for name in PROPERTY_HEADS}
        for contexts, label in zip(context_bags, labels):
            logits = self.heads.logits(self.model.embed(contexts).reshape(1, -1))
            label_dict = label.as_dict()
            for name, head_logits in logits.items():
                predicted = int(np.argmax(head_logits))
                correct[name] += int(predicted == label_dict[name])
        count = max(1, len(context_bags))
        return {name: correct[name] / count for name in PROPERTY_HEADS}
