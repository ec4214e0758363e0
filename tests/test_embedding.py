"""code2vec embedding pipeline tests."""

import numpy as np
import pytest

from repro.analysis.loopinfo import analyze_loop
from repro.core.loop_extractor import extract_loops
from repro.embedding.ast_paths import PathContext, extract_path_contexts, loop_tokens
from repro.embedding.code2vec import Code2VecConfig, Code2VecModel
from repro.embedding.pretrain import Code2VecPretrainer, loop_property_labels
from repro.embedding.vocab import Vocabulary, build_vocabularies, normalize_identifiers
from repro.frontend import parse_source
from repro.ir.lowering import lower_unit


LOOP_SOURCE = """
int a[64], b[64];
void f(int m) {
    for (int i = 0; i < 64; i++) {
        int j = a[i];
        b[i] = (j > m ? m : 0);
    }
}
"""


def _loop_ast(source=LOOP_SOURCE):
    loops = extract_loops(source)
    return loops[0].nest_root


class TestPathExtraction:
    def test_contexts_are_extracted(self):
        contexts = extract_path_contexts(_loop_ast())
        assert len(contexts) > 10
        assert all(isinstance(context, PathContext) for context in contexts)

    def test_paths_strip_identifier_payloads(self):
        contexts = extract_path_contexts(_loop_ast())
        assert all("Name:" not in context.path for context in contexts)

    def test_max_contexts_respected(self):
        contexts = extract_path_contexts(_loop_ast(), max_contexts=7)
        assert len(contexts) <= 7

    def test_max_path_length_filters_long_paths(self):
        long_paths = extract_path_contexts(_loop_ast(), max_path_length=20)
        short_paths = extract_path_contexts(_loop_ast(), max_path_length=4)
        assert len(short_paths) <= len(long_paths)

    def test_rename_map_applied_to_tokens(self):
        root = _loop_ast()
        rename = normalize_identifiers(root)
        contexts = extract_path_contexts(root, rename_map=rename)
        tokens = {c.start_token for c in contexts} | {c.end_token for c in contexts}
        assert not ({"a", "b"} & tokens)
        assert any(token.startswith("arr") for token in tokens)

    def test_loop_tokens_in_source_order(self):
        tokens = loop_tokens(_loop_ast())
        assert "i" in tokens and "64" in tokens

    def test_identical_loops_with_renamed_vars_share_contexts(self):
        other = LOOP_SOURCE.replace("a[", "src[").replace("b[", "dst[").replace(
            "int a[64], b[64];", "int src[64], dst[64];"
        )
        first_root = _loop_ast()
        second_root = _loop_ast(other)
        first = extract_path_contexts(first_root, rename_map=normalize_identifiers(first_root))
        second = extract_path_contexts(second_root, rename_map=normalize_identifiers(second_root))
        assert {str(c) for c in first} == {str(c) for c in second}


class TestVocabulary:
    def test_unknown_maps_to_unk(self):
        vocabulary = Vocabulary()
        vocabulary.add("x")
        assert vocabulary.lookup("x") == 1
        assert vocabulary.lookup("never_seen") == 0

    def test_add_is_idempotent(self):
        vocabulary = Vocabulary()
        first = vocabulary.add("x")
        second = vocabulary.add("x")
        assert first == second
        assert len(vocabulary) == 2

    def test_build_vocabularies_from_corpus(self):
        bags = [extract_path_contexts(_loop_ast())]
        tokens, paths = build_vocabularies(bags)
        assert len(tokens) > 1
        assert len(paths) > 1

    def test_normalize_identifiers_arrays_before_scalars(self):
        mapping = normalize_identifiers(_loop_ast())
        assert mapping["a"].startswith("arr")
        assert mapping["b"].startswith("arr")
        assert mapping["i"].startswith("var")


class TestCode2VecModel:
    def _model(self, dim=64):
        bags = [extract_path_contexts(_loop_ast())]
        tokens, paths = build_vocabularies(bags)
        return Code2VecModel(tokens, paths, Code2VecConfig(code_vector_dim=dim)), bags[0]

    def test_embedding_has_requested_dimension(self):
        model, contexts = self._model(340)
        vector = model.embed(contexts)
        assert vector.shape == (340,)

    def test_embedding_is_deterministic(self):
        model, contexts = self._model()
        assert np.allclose(model.embed(contexts), model.embed(contexts))

    def test_empty_context_bag_embeds_to_vector(self):
        model, _ = self._model()
        vector = model.embed([])
        assert vector.shape == (model.config.code_vector_dim,)

    def test_attention_weights_sum_to_one(self):
        model, contexts = self._model()
        weights = model.attention_weights(contexts)
        assert weights.shape[0] == min(len(contexts), model.config.max_contexts)
        assert weights.sum() == pytest.approx(1.0)

    def test_different_loops_embed_differently(self):
        model, contexts = self._model()
        other_root = _loop_ast(
            "float x[64], y[64];\nvoid g(float a) {"
            " for (int i = 0; i < 64; i++) y[i] = a * x[i] + y[i]; }"
        )
        other = extract_path_contexts(other_root)
        assert not np.allclose(model.embed(contexts), model.embed(other))


class TestPretraining:
    def test_labels_derived_from_analysis(self):
        functions = lower_unit(parse_source(LOOP_SOURCE))
        function = functions["f"]
        labels = loop_property_labels(analyze_loop(function, function.innermost_loops()[0]))
        assert labels.has_reduction == 0
        assert labels.nest_depth == 0
        assert labels.element_width == 2  # 32-bit

    def test_reduction_label(self):
        source = (
            "float a[64];\nfloat f() { float s = 0;"
            " for (int i = 0; i < 64; i++) s += a[i]; return s; }"
        )
        function = lower_unit(parse_source(source))["f"]
        labels = loop_property_labels(analyze_loop(function, function.innermost_loops()[0]))
        assert labels.has_reduction == 1
        assert labels.is_float == 1

    def test_pretraining_reduces_loss(self):
        sources = [
            LOOP_SOURCE,
            "float a[64];\nfloat f() { float s = 0;"
            " for (int i = 0; i < 64; i++) s += a[i]; return s; }",
            "float x[64], y[64];\nvoid g(float a) {"
            " for (int i = 0; i < 64; i++) y[i] = a * x[i] + y[i]; }",
        ]
        bags, labels = [], []
        for source in sources:
            root = extract_loops(source)[0].nest_root
            bags.append(extract_path_contexts(root, rename_map=normalize_identifiers(root)))
            functions = lower_unit(parse_source(source))
            function = next(iter(functions.values()))
            labels.append(
                loop_property_labels(analyze_loop(function, function.innermost_loops()[0]))
            )
        tokens, paths = build_vocabularies(bags)
        model = Code2VecModel(tokens, paths, Code2VecConfig(code_vector_dim=64))
        pretrainer = Code2VecPretrainer(model, learning_rate=5e-3, seed=0)
        result = pretrainer.train(bags, labels, epochs=10)
        first_epoch = np.mean(result.losses[: len(sources)])
        last_epoch = np.mean(result.losses[-len(sources):])
        assert last_epoch < first_epoch
        accuracy = pretrainer.evaluate(bags, labels)
        assert accuracy["has_reduction"] >= 2 / 3
