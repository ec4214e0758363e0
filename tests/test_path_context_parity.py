"""Path-context bags: frozen output, one bag per loop, freed with its AST.

The digests below are SHA-1s over ``str()`` of every context of every bag,
computed with the extractor as it stood before it cached per-leaf strings
and before loops kept their bags.  They are never regenerated: a faster
extractor must return the same list, in the same order, with the same
truncation.  Two corpora are pinned — the ``train_cold`` benchmark corpus
(300 seed-0 synthetic kernels plus the LLVM suite, 325 loops) and
PolyBench + MiBench (22 loops) — at the default limits and at a few
non-default ones.  A pairwise reference — every leaf pair, each path
built label by label — checks the extractor on a grid of limits.

The remaining tests pin the bag's lifetime: each :class:`ExtractedLoop`
builds its nest root's bag once, every consumer (vocabulary, pretraining,
each task's observation) reads that same tuple, and it leaves with the
frontend-cache record that holds the loop.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import pickle
import types
import weakref

import pytest

import repro.core.framework as framework_module
import repro.frontend.cache as cache_module
from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.core.loop_extractor import extract_loops
from repro.datasets.kernels import LoopKernel
from repro.datasets.llvm_suite import llvm_vectorizer_suite
from repro.datasets.mibench import mibench_suite
from repro.datasets.polybench import polybench_suite
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.embedding.ast_paths import PathContext, extract_path_contexts
from repro.embedding.pretrain import Code2VecPretrainer
from repro.embedding.vocab import normalize_identifiers
from repro.frontend.cache import FrontendCache, frontend_cache
from repro.tasks import DecisionSite, get_task

#: Keyword overrides of ``extract_path_contexts``; every setting except the
#: last passes ``rename_map=normalize_identifiers(nest_root)``.
SETTINGS = {
    "defaults": {},
    "max_contexts=7": {"max_contexts": 7},
    "max_path_length=5": {"max_path_length": 5},
    "max_path_width=1": {"max_path_width": 1},
    "rename_map=None": {"rename_map": None},
}

TRAIN_COLD_LOOPS = 325
TRAIN_COLD_DIGESTS = {
    "defaults": "e550f18455b844e8621a98861fb0906e2d31144e",
    "max_contexts=7": "66b47ae560abf186a4f08cde3241e2a9b1ae27c8",
    "max_path_length=5": "0aacd8c04c2009ef751c049680d20a72ed780af4",
    "max_path_width=1": "ed4aa1190a2f11b656711acf21739ee8c17df1df",
    "rename_map=None": "4db5b39b8d597d20686e7d1aa547e547d010ebe0",
}

SUITE_LOOPS = 22
SUITE_DIGESTS = {
    "defaults": "2972f0eddb6034e849316aae9a0d7e47bd1e0824",
    "max_contexts=7": "4cc9047a7b5b157e26b385d8c61cdbf156a92ac0",
    "max_path_length=5": "37880f3d43d3d58b226e45b83d8064d1bb7b155c",
    "max_path_width=1": "584dc12623f17aa36b766ff0e48353c6d93b62d4",
    "rename_map=None": "e67656c0c4eaada4bb39503ed6cb980a33f84cbc",
}

SCALE_SOURCE = """
float a[4096], b[4096];
void scale(float alpha) {
    for (int i = 0; i < 4096; i++) {
        b[i] = alpha * a[i];
    }
}
"""

ADD_SOURCE = """
float x[64][64], y[64][64];
void add2d(float beta) {
    for (int i = 0; i < 64; i++) {
        for (int j = 0; j < 64; j++) {
            y[i][j] = y[i][j] + beta * x[i][j];
        }
    }
}
"""

ALL_TASKS = ("vectorization", "polly-tiling", "unrolling")


def bag_digest(bags) -> str:
    digest = hashlib.sha1()
    for bag in bags:
        digest.update(("\n".join(str(context) for context in bag) + "\n\n").encode())
    return digest.hexdigest()


def corpus_loops(kernels):
    loops = []
    for kernel in kernels:
        try:
            loops.extend(extract_loops(kernel.source, function_name=kernel.function_name))
        except Exception:
            continue
    return loops


def extract(root, overrides):
    kwargs = dict(overrides)
    kwargs.setdefault("rename_map", normalize_identifiers(root))
    return extract_path_contexts(root, **kwargs)


@pytest.fixture(scope="module")
def train_cold_loops():
    kernels = list(generate_synthetic_dataset(SyntheticDatasetConfig(count=300, seed=0)))
    kernels.extend(llvm_vectorizer_suite())
    return corpus_loops(kernels)


@pytest.fixture(scope="module")
def suite_loops():
    return corpus_loops(list(polybench_suite()) + list(mibench_suite()))


@pytest.mark.timeout(300)
@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_train_cold_bags_match_the_frozen_digests(train_cold_loops, setting):
    assert len(train_cold_loops) == TRAIN_COLD_LOOPS
    bags = [extract(loop.nest_root, SETTINGS[setting]) for loop in train_cold_loops]
    assert bag_digest(bags) == TRAIN_COLD_DIGESTS[setting]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_suite_bags_match_the_frozen_digests(suite_loops, setting):
    assert len(suite_loops) == SUITE_LOOPS
    bags = [extract(loop.nest_root, SETTINGS[setting]) for loop in suite_loops]
    assert bag_digest(bags) == SUITE_DIGESTS[setting]


def reference_path_contexts(node, max_path_length, max_path_width, max_contexts, rename_map):
    """The extractor as it stood before per-leaf caching: every leaf pair in
    ``itertools.combinations`` order, each path built label by label."""
    from repro.embedding.ast_paths import _leaf_token, _strip_label

    leaves = []

    def collect(current, ancestry, positions):
        ancestry = ancestry + (current.label(),)
        token = _leaf_token(current)
        if token is not None:
            leaves.append((token, ancestry, positions))
        children = [child for child in current.children() if child is not None]
        for index, child in enumerate(children):
            collect(child, ancestry, positions + (index,))

    collect(node, (), ())
    contexts = []
    for (token_a, ancestry_a, positions_a), (token_b, ancestry_b, positions_b) in (
        itertools.combinations(leaves, 2)
    ):
        common = 0
        limit = min(len(positions_a), len(positions_b))
        while common < limit and positions_a[common] == positions_b[common]:
            common += 1
        if common < len(positions_a) and common < len(positions_b):
            if abs(positions_a[common] - positions_b[common]) > max_path_width:
                continue
        up = list(reversed(ancestry_a[common:]))
        down = list(ancestry_b[common:])
        ancestor = ancestry_a[common - 1] if common > 0 else ancestry_a[0]
        if len(up) + 1 + len(down) > max_path_length:
            continue
        path = "^".join(map(_strip_label, up)) + "^" + _strip_label(ancestor)
        path += "_" + "_".join(map(_strip_label, down))
        contexts.append(PathContext(rename_map.get(token_a, token_a), path,
                                    rename_map.get(token_b, token_b)))
        if len(contexts) >= max_contexts:
            break
    return contexts


@pytest.mark.parametrize("max_path_length", [3, 6, 12])
@pytest.mark.parametrize("max_path_width", [0, 2, 5])
@pytest.mark.parametrize("max_contexts", [1, 40, 10_000])
def test_extractor_matches_the_pairwise_reference(
    suite_loops, max_path_length, max_path_width, max_contexts
):
    for loop in suite_loops:
        root = loop.nest_root
        rename_map = normalize_identifiers(root)
        limits = dict(max_path_length=max_path_length, max_path_width=max_path_width,
                      max_contexts=max_contexts, rename_map=rename_map)
        assert extract_path_contexts(root, **limits) == reference_path_contexts(root, **limits)


def test_stored_bags_are_the_default_extraction(train_cold_loops, suite_loops):
    assert bag_digest(loop.path_contexts for loop in train_cold_loops) == (
        TRAIN_COLD_DIGESTS["defaults"]
    )
    assert bag_digest(loop.path_contexts for loop in suite_loops) == (
        SUITE_DIGESTS["defaults"]
    )
    assert all(type(loop.path_contexts) is tuple for loop in suite_loops)


def test_contexts_are_compact_and_pickle():
    first = extract_loops(SCALE_SOURCE)[0].path_contexts
    second = extract_loops(SCALE_SOURCE.replace("alpha", "gamma"))[0].path_contexts
    assert first and not hasattr(first[0], "__dict__")
    # Separate extractions share their (interned) strings.
    assert first == second
    assert all(a.path is b.path and a.start_token is b.start_token
               for a, b in zip(first, second))
    restored = pickle.loads(pickle.dumps(first))
    assert restored == first
    assert [hash(context) for context in restored] == [hash(context) for context in first]
    assert [str(context) for context in restored] == [str(context) for context in first]


@pytest.fixture
def cache(monkeypatch) -> FrontendCache:
    """A fresh process-wide frontend memo for one test."""
    frontend_cache()  # the env snapshot a swapped-in instance is checked against
    fresh = FrontendCache()
    monkeypatch.setattr(cache_module, "_GLOBAL_CACHE", fresh)
    return fresh


class _Echo:
    """An embedding model whose "embedding" is the bag it was handed."""

    def embed(self, contexts):
        return contexts


def tiny_kernels():
    return [
        LoopKernel(name="scale", source=SCALE_SOURCE, function_name="scale"),
        LoopKernel(name="add2d", source=ADD_SOURCE, function_name="add2d"),
    ]


@pytest.mark.timeout(300)
def test_one_bag_per_loop_across_vocabulary_pretraining_and_tasks(monkeypatch, cache):
    recorded = {}
    build_vocabularies = framework_module.build_vocabularies
    pretrain = Code2VecPretrainer.train

    def vocabularies(context_sets, *args, **kwargs):
        recorded["vocabulary"] = list(context_sets)
        return build_vocabularies(context_sets, *args, **kwargs)

    def pretrainer(self, context_bags, labels, *args, **kwargs):
        recorded["pretraining"] = list(context_bags)
        return pretrain(self, context_bags, labels, *args, **kwargs)

    monkeypatch.setattr(framework_module, "build_vocabularies", vocabularies)
    monkeypatch.setattr(Code2VecPretrainer, "train", pretrainer)
    kernels = tiny_kernels()
    NeuroVectorizer.train(
        kernels,
        TrainingConfig(tasks=ALL_TASKS, rl_total_steps=12, rl_batch_size=6),
    )

    loops = corpus_loops(kernels)
    bags = [loop.path_contexts for loop in loops]
    assert len(loops) == 2
    for consumer in ("vocabulary", "pretraining"):
        assert len(recorded[consumer]) == len(bags)
        assert all(seen is bag for seen, bag in zip(recorded[consumer], bags))
    for name in ALL_TASKS:
        task = get_task(name)
        observed = [
            task.observation_features(site, _Echo())
            for kernel in kernels
            for site in task.decision_sites(kernel)
        ]
        assert len(observed) == len(bags)
        assert all(seen is bag for seen, bag in zip(observed, bags))


def test_a_bag_leaves_with_its_frontend_record(cache):
    loop = extract_loops(SCALE_SOURCE)[0]
    bag = loop.path_contexts
    assert loop.path_contexts is bag
    # The loop is the bag's only holder ...
    holders = [ref for ref in gc.get_referrers(bag) if not isinstance(ref, types.FrameType)]
    assert holders == [vars(loop)]
    # ... and the loop leaves with the record.
    alive = weakref.ref(loop)
    del loop, bag, holders
    cache.set_capacity(1)
    extract_loops(ADD_SOURCE)
    assert cache.stats.evictions == 1
    gc.collect()
    assert alive() is None


def test_bags_are_equal_with_the_frontend_cache_disabled(cache):
    kernel = tiny_kernels()[1]
    kept = extract_loops(kernel.source, function_name=kernel.function_name)[0]
    cache.disable()
    first = extract_loops(kernel.source, function_name=kernel.function_name)[0]
    second = extract_loops(kernel.source, function_name=kernel.function_name)[0]
    assert first is not second
    assert first.path_contexts == second.path_contexts == kept.path_contexts
    for name in ALL_TASKS:
        (site,) = get_task(name).decision_sites(kernel)
        assert get_task(name).observation_features(site, _Echo()) == kept.path_contexts


def test_a_site_off_the_nest_root_is_extracted_afresh(cache):
    loop = extract_loops(ADD_SOURCE)[0]
    site = DecisionSite(index=0, ast_node=loop.ast_loop, payload=loop)
    observed = get_task("vectorization").observation_features(site, _Echo())
    expected = extract_path_contexts(
        loop.ast_loop, rename_map=normalize_identifiers(loop.ast_loop)
    )
    assert observed == expected and observed != list(loop.path_contexts)
