"""Core framework tests: loop extraction, pragma injection, pipeline, facade."""

import numpy as np
import pytest

from repro.agents.baseline import BaselineAgent
from repro.agents.brute_force import BruteForceAgent
from repro.core.framework import NeuroVectorizer, build_embedding_model
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompileAndMeasure
from repro.core.pragma_injector import inject_pragma_text, inject_pragmas, strip_loop_pragmas
from repro.datasets.kernels import LoopKernel
from repro.datasets.motivating import dot_product_kernel
from repro.distributed import EvaluationService
from repro.frontend.pragmas import LoopPragma, format_pragma, parse_pragma_text
from oracle import measure_annotated


NESTED_SOURCE = """
float A[64][64], B[64][64], C[64][64];
void matmul(float alpha) {
    for (int i = 0; i < 64; i++) {
        for (int j = 0; j < 64; j++) {
            float sum = 0;
            for (int k = 0; k < 64; k++) {
                sum += alpha * A[i][k] * B[k][j];
            }
            C[i][j] = sum;
        }
    }
}
"""

TWO_LOOP_SOURCE = """
float a[256], b[256];
void two(float alpha) {
    for (int i = 0; i < 256; i++) {
        a[i] = alpha * a[i];
    }
    for (int j = 0; j < 256; j++) {
        b[j] = a[j] + b[j];
    }
}
"""


class TestLoopExtractor:
    def test_extracts_innermost_loops_only(self):
        loops = extract_loops(NESTED_SOURCE)
        assert len(loops) == 1
        assert loops[0].ast_loop is not loops[0].nest_root
        assert loops[0].nest_depth == 3

    def test_extracts_all_top_level_loops(self):
        loops = extract_loops(TWO_LOOP_SOURCE)
        assert len(loops) == 2
        assert [loop.loop_index for loop in loops] == [0, 1]

    def test_source_line_points_at_innermost_for(self):
        loops = extract_loops(NESTED_SOURCE)
        lines = NESTED_SOURCE.split("\n")
        assert "for (int k" in lines[loops[0].source_line - 1]

    def test_function_filter(self):
        source = TWO_LOOP_SOURCE + "\nvoid other(int *p) { for (int i = 0; i < 4; i++) p[i] = i; }"
        loops = extract_loops(source, function_name="other")
        assert len(loops) == 1
        assert loops[0].function_name == "other"

    def test_source_text_contains_whole_nest(self):
        loops = extract_loops(NESTED_SOURCE)
        assert "for (i = 0" in loops[0].source_text or "for (int i" in loops[0].source_text
        assert "sum" in loops[0].source_text

    def test_extractor_matches_ir_loop_order(self, pipeline):
        kernel = LoopKernel(name="two", source=TWO_LOOP_SOURCE, function_name="two")
        loops = extract_loops(kernel.source, function_name="two")
        ir = pipeline.lower_kernel(kernel)
        assert len(loops) == len(ir.innermost_loops())


class TestPragmaInjection:
    def test_inject_single_pragma(self):
        loops = extract_loops(NESTED_SOURCE)
        injected = inject_pragma_text(
            NESTED_SOURCE,
            loops[0].source_line,
            LoopPragma(vectorize_width=8, interleave_count=4),
        )
        pragmas = [parse_pragma_text(line) for line in injected.splitlines()]
        pragmas = [p for p in pragmas if p is not None]
        assert len(pragmas) == 1
        assert pragmas[0].vectorize_width == 8

    def test_injected_pragma_lands_before_innermost_loop(self):
        loops = extract_loops(NESTED_SOURCE)
        injected = inject_pragma_text(
            NESTED_SOURCE,
            loops[0].source_line,
            LoopPragma(vectorize_width=16, interleave_count=2),
        )
        lines = injected.splitlines()
        pragma_line = next(i for i, l in enumerate(lines) if "#pragma" in l)
        assert "for (int k" in lines[pragma_line + 1]

    def test_inject_pragmas_for_multiple_loops(self):
        injected = inject_pragmas(TWO_LOOP_SOURCE, {0: (8, 2), 1: (4, 4)})
        parsed = [parse_pragma_text(line) for line in injected.splitlines()]
        parsed = [p for p in parsed if p is not None]
        assert len(parsed) == 2
        assert {p.vectorize_width for p in parsed} == {8, 4}

    def test_injection_is_idempotent(self):
        once = inject_pragmas(TWO_LOOP_SOURCE, {0: (8, 2)})
        twice = inject_pragmas(once, {0: (8, 2)})
        assert once == twice

    def test_strip_loop_pragmas(self):
        injected = inject_pragmas(TWO_LOOP_SOURCE, {0: (8, 2)})
        assert strip_loop_pragmas(injected).count("#pragma") == 0

    def test_injected_source_round_trips_through_frontend(self, pipeline):
        injected = inject_pragmas(NESTED_SOURCE, {0: (32, 8)}, function_name="matmul")
        kernel = LoopKernel(name="mm", source=injected, function_name="matmul")
        ir = pipeline.lower_kernel(kernel)
        loop = ir.innermost_loops()[0]
        assert loop.pragma.vectorize_width == 32
        assert loop.pragma.interleave_count == 8

    def test_indentation_matches_target_line(self):
        loops = extract_loops(NESTED_SOURCE)
        injected = inject_pragma_text(
            NESTED_SOURCE,
            loops[0].source_line,
            LoopPragma(vectorize_width=8, interleave_count=2),
        )
        lines = injected.splitlines()
        pragma_line = next(l for l in lines if "#pragma" in l)
        target_line = lines[lines.index(pragma_line) + 1]
        pragma_indent = len(pragma_line) - len(pragma_line.lstrip())
        target_indent = len(target_line) - len(target_line.lstrip())
        assert pragma_indent == target_indent


class TestCompileAndMeasure:
    def test_baseline_vs_scalar(self, pipeline, dot_kernel):
        baseline = pipeline.measure_baseline(dot_kernel)
        scalar = pipeline.measure_scalar(dot_kernel)
        assert baseline.cycles < scalar.cycles
        assert scalar.speedup_over(baseline) < 1.0

    def test_measure_with_factors_beats_baseline_for_good_choice(self, pipeline, dot_kernel):
        baseline = pipeline.measure_baseline(dot_kernel)
        tuned = pipeline.measure_with_factors(dot_kernel, {0: (8, 8)})
        assert tuned.cycles < baseline.cycles

    def test_pragma_and_factor_paths_agree(self, pipeline, dot_kernel):
        by_factors = pipeline.measure_with_factors(dot_kernel, {0: (16, 4)})
        injected = inject_pragmas(dot_kernel.source, {0: (16, 4)},
                                  function_name=dot_kernel.function_name)
        by_pragmas = measure_annotated(pipeline, dot_kernel, injected)
        assert by_factors.cycles == pytest.approx(by_pragmas.cycles, rel=1e-9)

    def test_factors_reported_after_clamping(self, pipeline):
        kernel = LoopKernel(
            name="dep",
            source="float a[64];\nvoid f() { for (int i = 4; i < 64; i++) a[i] = a[i-4]; }",
            function_name="f",
        )
        result = pipeline.measure_with_factors(kernel, {0: (64, 2)})
        assert result.factors[0][0] == 4  # clamped by the dependence distance

    def test_compile_seconds_positive(self, pipeline, dot_kernel):
        result = pipeline.measure_baseline(dot_kernel)
        assert result.compile_seconds > 0

    def test_bindings_respected(self, pipeline):
        kernel = LoopKernel(
            name="sym",
            source="void f(float *a, int n) { for (int i = 0; i < n; i++) a[i] = 1; }",
            function_name="f",
            bindings={"n": 64},
        )
        big = LoopKernel(name="sym2", source=kernel.source, function_name="f",
                         bindings={"n": 8192})
        assert pipeline.measure_baseline(big).cycles > pipeline.measure_baseline(kernel).cycles

    def test_one_file_at_two_sizes_is_not_served_the_first_size(self, pipeline):
        # Regression: the lowered-IR memo ignored bindings, so the second
        # size of one (name, text) got the first size's trip counts.
        def sized(n):
            return LoopKernel(
                name="sym",
                source="float a[4096];\nvoid f(int n) { for (int i = 0; i < n; i++) a[i] = 1; }",
                function_name="f",
                bindings={"n": n},
            )

        pipeline.measure_baseline(sized(8))
        for measure in ("measure_baseline", "measure_scalar"):
            shared = getattr(pipeline, measure)(sized(4096))
            fresh = getattr(CompileAndMeasure(), measure)(sized(4096))
            assert shared.cycles == fresh.cycles


class TestNeuroVectorizerFacade:
    @pytest.fixture(scope="class")
    def framework(self):
        kernels = [dot_product_kernel()]
        embedding = build_embedding_model(kernels)
        service = EvaluationService(CompileAndMeasure())
        return NeuroVectorizer(
            embedding, BruteForceAgent(evaluation_service=service), evaluation_service=service
        )

    def test_vectorize_kernel_improves_over_baseline(self, framework, dot_kernel):
        result = framework.optimize_kernel(dot_kernel)
        assert result.speedup_over_baseline >= 1.0
        assert result.reward >= 0.0
        assert len(result.decisions) == 1
        assert "#pragma clang loop" in result.transformed_source

    def test_vectorize_source_entry_point(self, framework):
        result = framework.optimize_source(
            "float a[1024], b[1024];\nvoid f() { for (int i = 0; i < 1024; i++) a[i] = b[i] * 2; }"
        )
        assert result.task == "vectorization"
        assert result.decisions[0][0] >= 1
        assert "#pragma clang loop" in result.transformed_source

    def test_decisions_render_as_pragmas(self, framework, dot_kernel):
        result = framework.optimize_kernel(dot_kernel)
        vf, interleave = result.decisions[0]
        pragma = format_pragma(
            LoopPragma(vectorize_width=vf, interleave_count=interleave)
        )
        assert pragma.startswith("#pragma clang loop")
        assert pragma in result.transformed_source

    def test_observe_loop_dimension(self, framework, dot_kernel):
        (site,) = framework.task.decision_sites(dot_kernel)
        observation = framework.task.observation_features(
            site, framework.embedding_model
        )
        assert observation.shape == (framework.embedding_model.config.code_vector_dim,)

    def test_baseline_agent_framework_is_neutral(self, dot_kernel):
        kernels = [dot_product_kernel()]
        embedding = build_embedding_model(kernels)
        pipeline = CompileAndMeasure()
        framework = NeuroVectorizer(
            embedding, BaselineAgent(pipeline), evaluation_service=EvaluationService(pipeline)
        )
        result = framework.optimize_kernel(dot_kernel)
        assert result.speedup_over_baseline == pytest.approx(1.0, rel=1e-9)

    def test_vectorize_source_without_loops_raises(self, framework):
        with pytest.raises(ValueError):
            framework.optimize_source("int f() { return 3; }")
