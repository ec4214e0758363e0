"""The hand-written code2vec pretraining step against the autodiff oracle.

``Code2VecPretrainer._train_one`` runs its forward and backward in plain
numpy.  Two checks hold it to the graph it replaced:

* identity: on the same model, every step returns the same loss and lands
  the same raw bytes in all 17 gradients (taken before clipping) and all
  17 trained parameters as :func:`oracle.graph_train_one`, on bags that
  cover the empty bag, one context, more than ``max_contexts`` contexts,
  one token as both ends of a context and repeated paths;
* correctness: for every pretext head alone, each gradient entry matches
  a central finite difference of that head's cross-entropy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracle import graph_train_one
from repro.embedding.ast_paths import PathContext
from repro.embedding.code2vec import Code2VecConfig, Code2VecModel
from repro.embedding.pretrain import PROPERTY_HEADS, Code2VecPretrainer, LoopPropertyLabels
from repro.embedding.vocab import Vocabulary
from repro.nn.optim import Optimizer

TOKENS = ("i", "n", "a", "b", "0", "1", "+", "*")
PATHS = ("Var^For_Lit", "Var^Bin_Var", "Var^Asgn^Bin_Lit", "Lit^Bin^Idx_Var", "Var^Idx_Var")
#: Small widths keep the finite differences cheap; the identity examples
#: also run at the paper's widths.
SMALL = dict(token_embedding_dim=5, path_embedding_dim=4, code_vector_dim=7)


def vocabulary(names) -> Vocabulary:
    vocab = Vocabulary()
    for name in names:
        vocab.add(name)
    return vocab


def pretrainer(widths) -> Code2VecPretrainer:
    model = Code2VecModel(vocabulary(TOKENS), vocabulary(PATHS), Code2VecConfig(**widths))
    return Code2VecPretrainer(model, seed=0)


def context(start, path, end) -> PathContext:
    return PathContext(start, path, end)


def label(**overrides) -> LoopPropertyLabels:
    values = {name: classes - 1 for name, classes in PROPERTY_HEADS.items()}
    values.update(overrides)
    return LoopPropertyLabels(**values)


def step_with_gradients(trainer, step, bag, target):
    """Run ``step`` and return ``(loss, gradients)``, the gradients as they
    stood before ``clip_gradients`` rescaled them."""
    optimizer = trainer.optimizer
    seen = []

    def clip(max_norm):
        seen.extend(None if p.grad is None else p.grad.copy() for p in optimizer.parameters)
        return Optimizer.clip_gradients(optimizer, max_norm)

    optimizer.clip_gradients = clip
    try:
        loss = step(trainer, bag, target)
    finally:
        del optimizer.clip_gradients
    return loss, seen


def hand_written(trainer, bag, target):
    return trainer._train_one(bag, target)


def as_bytes(arrays):
    return [None if array is None else array.tobytes() for array in arrays]


contexts = st.builds(
    context,
    st.sampled_from(TOKENS + ("unseen",)),
    st.sampled_from(PATHS + ("unseen",)),
    st.sampled_from(TOKENS),
)
labels = st.builds(
    LoopPropertyLabels,
    **{name: st.integers(0, classes - 1) for name, classes in PROPERTY_HEADS.items()},
)
steps = st.lists(st.tuples(st.lists(contexts, max_size=230), labels), min_size=1, max_size=3)

EMPTY = []
SINGLE = [context("a", PATHS[0], "b")]
OVER_MAX = [context(TOKENS[k % 8], PATHS[k % 5], TOKENS[(3 * k) % 8]) for k in range(230)]
SAME_ENDS = [context("a", PATHS[1], "a"), context("n", PATHS[2], "n"), context("a", PATHS[0], "b")]
REPEATED_PATHS = [context(TOKENS[k], PATHS[3], TOKENS[-1 - k]) for k in range(6)]


@pytest.mark.timeout(300)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(widths={}, steps=[(EMPTY, label()), (SINGLE, label(access_kind=0))])
@example(widths={}, steps=[(OVER_MAX, label()), (SAME_ENDS, label(nest_depth=0))])
@example(widths={}, steps=[(REPEATED_PATHS, label()), (REPEATED_PATHS, label(is_float=0))])
@example(widths=SMALL, steps=[(EMPTY, label()), (OVER_MAX, label()), (SAME_ENDS, label())])
@given(widths=st.just(SMALL), steps=steps)
def test_hand_written_step_matches_the_graph_bit_for_bit(widths, steps):
    fused, graph = pretrainer(widths), pretrainer(widths)
    assert len(fused.optimizer.parameters) == 17
    for bag, target in steps:
        fused_loss, fused_gradients = step_with_gradients(fused, hand_written, bag, target)
        graph_loss, graph_gradients = step_with_gradients(graph, graph_train_one, bag, target)
        assert np.float64(fused_loss).tobytes() == np.float64(graph_loss).tobytes()
        assert as_bytes(fused_gradients) == as_bytes(graph_gradients)
        assert all(gradient is not None for gradient in fused_gradients)
        assert as_bytes(p.data for p in fused.optimizer.parameters) == as_bytes(
            p.data for p in graph.optimizer.parameters
        )


def head_loss(trainer, bag, name, target) -> float:
    logits = trainer.heads.logits(trainer.model.forward(bag).code_vector)[name][0]
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[target])


class _Stop(Exception):
    pass


@pytest.mark.parametrize("name", list(PROPERTY_HEADS))
def test_each_head_gradient_matches_finite_differences(name):
    trainer = pretrainer(SMALL)
    # Train this head alone, so the gradients are its cross-entropy's.
    trainer.heads.heads = {name: trainer.heads.heads[name]}
    bag = SAME_ENDS + REPEATED_PATHS + [context("unseen", "unseen", "1")]
    target = PROPERTY_HEADS[name] - 1
    gradients = []

    def stop_before_clipping(max_norm):
        gradients.extend(p.grad for p in trainer.optimizer.parameters)
        raise _Stop

    trainer.optimizer.clip_gradients = stop_before_clipping
    with pytest.raises(_Stop):
        trainer._train_one(bag, label(**{name: target}))
    checked = 0
    epsilon = 1e-6
    for parameter, analytic in zip(trainer.optimizer.parameters, gradients):
        if analytic is None:
            continue
        numeric = np.zeros_like(analytic)
        values = parameter.data.reshape(-1)
        for index in range(values.size):
            original = values[index]
            values[index] = original + epsilon
            plus = head_loss(trainer, bag, name, target)
            values[index] = original - epsilon
            minus = head_loss(trainer, bag, name, target)
            values[index] = original
            numeric.reshape(-1)[index] = (plus - minus) / (2 * epsilon)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8), parameter.name
        checked += 1
    # Both embedding tables, the combine layer, attention and this head.
    assert checked == 7
