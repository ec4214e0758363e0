"""code2vec pretraining and embedding: frozen output.

The literals below are SHA-1 digests of what pretraining produced while
its step still ran through the autodiff graph, on the ``train_cold``
benchmark corpus (300 seed-0 synthetic kernels plus the LLVM suite): the
loss curve, every parameter and both Adam moments, the per-head accuracy,
the embedding of every bag (and of the empty bag) and the attention
weights of a few bags, after 1 and after 3 epochs.  They are never
regenerated: a hand-written step must land on the same bits.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.framework import build_embedding_model
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.llvm_suite import llvm_vectorizer_suite
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.embedding.pretrain import (
    PROPERTY_HEADS,
    Code2VecPretrainer,
    loop_property_labels,
)

CORPUS_SITES = 325
#: Bags whose attention weights are pinned (indices into the corpus).
ATTENTION_BAGS = (0, 1, 2, 50, 100, 200, 324)

DIGESTS = {
    1: {
        "steps": 325,
        "losses": "a5ac4aeefbbfde4e4daf2d51bd0d2c287c857c96",
        "parameters": "223391e3974ab29c2dcb070a8a6f6cd2da63557a",
        "first_moments": "f8288382fc6252b4c194f1b50701a1a02d6feb69",
        "second_moments": "2ca82674b7cb5c671325e566f43343a638c4142f",
        "accuracy": "d47250ef7494b83545782885b3a00e9a1d12b777",
        "embed": "da90510d09e905f8f8a7c97f90a807eb0465f1a8",
        "attention": "f18d7c0e7077ef213b01b2cdda1c7afe6cfcb136",
    },
    3: {
        "steps": 975,
        "losses": "14df408d9bac08a0c177831f45476fabf90b442c",
        "parameters": "17ecff4d25b815885df234df947dd3e488bb0ef2",
        "first_moments": "a20885b44d8158fef0fd9fb57f155289bda99ac1",
        "second_moments": "3944f2846a00e26f579eee276e889921cff58514",
        "accuracy": "1a2aa72f5cc861793a8542018f8565e0a4ec3f51",
        "embed": "712cd4b418b5b76df591c7da53d61391760efefb",
        "attention": "6f8716b8687a32427368971c4191dfe4f5e2e548",
    },
}

UNTRAINED_EMBED_DIGEST = "11093f08bc1d6759f83f6909133966aaac73f4b3"


def _sha1(chunks) -> str:
    digest = hashlib.sha1()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def corpus():
    """``(kernels, bags, labels)`` built the way ``NeuroVectorizer.train``
    builds its pretraining set, over every kernel of the corpus."""
    kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=300, seed=0)))
    kernels.extend(llvm_vectorizer_suite())
    pipeline = CompileAndMeasure()
    bags, labels = [], []
    for kernel in kernels:
        try:
            loops = extract_loops(kernel.source, function_name=kernel.function_name)
            ir_loops = pipeline.lower_kernel(kernel).innermost_loops()
        except Exception:
            continue
        for loop in loops:
            if loop.loop_index >= len(ir_loops):
                continue
            bags.append(loop.path_contexts)
            analysis = pipeline.loop_analyses(kernel)[ir_loops[loop.loop_index].loop_id]
            labels.append(loop_property_labels(analysis))
    return kernels, bags, labels


def embed_digest(model, bags) -> str:
    return _sha1([model.embed(bag).tobytes() for bag in list(bags) + [[]]])


def pretraining_digests(kernels, bags, labels, epochs):
    """Digests of one fresh pretraining run of ``epochs`` epochs."""
    model = build_embedding_model(kernels)
    pretrainer = Code2VecPretrainer(model, seed=0)
    result = pretrainer.train(bags, labels, epochs=epochs)
    accuracy = pretrainer.evaluate(bags, labels)
    optimizer = pretrainer.optimizer
    moments = [optimizer.moments(parameter) for parameter in optimizer.parameters]
    return {
        "steps": result.steps,
        "losses": _sha1([np.asarray(result.losses, dtype=np.float64).tobytes()]),
        "parameters": _sha1([p.data.tobytes() for p in optimizer.parameters]),
        "first_moments": _sha1([first.tobytes() for first, _ in moments]),
        "second_moments": _sha1([second.tobytes() for _, second in moments]),
        "accuracy": _sha1(
            [np.asarray([accuracy[name] for name in PROPERTY_HEADS]).tobytes()]
        ),
        "embed": embed_digest(model, bags),
        "attention": _sha1(
            [model.attention_weights(bags[index]).tobytes() for index in ATTENTION_BAGS]
        ),
    }


@pytest.fixture(scope="module")
def train_cold_corpus():
    kernels, bags, labels = corpus()
    assert len(bags) == len(labels) == CORPUS_SITES
    return kernels, bags, labels


def test_untrained_embeddings_match_the_frozen_digest(train_cold_corpus):
    kernels, bags, _ = train_cold_corpus
    assert embed_digest(build_embedding_model(kernels), bags) == UNTRAINED_EMBED_DIGEST


@pytest.mark.timeout(300)
@pytest.mark.parametrize("epochs", sorted(DIGESTS))
def test_pretraining_matches_the_frozen_digests(train_cold_corpus, epochs):
    assert pretraining_digests(*train_cold_corpus, epochs) == DIGESTS[epochs]
