"""Dataset tests: kernel banks, synthetic generator, suites compile cleanly."""

import pytest

from repro.core.pipeline import CompileAndMeasure
from repro.datasets import (
    KernelSuite,
    LoopKernel,
    SyntheticDatasetConfig,
    dot_product_kernel,
    generate_synthetic_dataset,
    llvm_vectorizer_suite,
    mibench_suite,
    polybench_suite,
)
from repro.datasets import test_benchmarks as held_out_benchmarks
from repro.datasets.synthetic import TEMPLATES, parameter_space_size
from repro.frontend.cache import frontend_cache
from repro.ir.verifier import verify_function


def lower_kernel(kernel: LoopKernel):
    return CompileAndMeasure().lower_kernel(kernel)


class TestKernelContainer:
    def test_lazy_parse_and_lower(self, dot_kernel):
        unit = frontend_cache().parse(dot_kernel.source)
        assert unit.find_function("example1") is not None
        ir = lower_kernel(dot_kernel)
        assert len(ir.innermost_loops()) == 1

    def test_with_source_creates_independent_copy(self, dot_kernel):
        modified = dot_kernel.with_source(dot_kernel.source + "\n// touched\n")
        assert modified.source != dot_kernel.source
        assert modified.name == dot_kernel.name

    def test_unknown_function_raises(self):
        kernel = LoopKernel(name="bad", source="void f() {}", function_name="missing")
        with pytest.raises(ValueError, match="no function 'missing'"):
            lower_kernel(kernel)

    def test_suite_lookup(self):
        suite = llvm_vectorizer_suite()
        assert suite.by_name("saxpy") is not None
        assert suite.by_name("not_there") is None
        assert len(suite.names()) == len(suite)


class TestKernelBanks:
    @pytest.mark.parametrize(
        "suite_factory, minimum",
        [(llvm_vectorizer_suite, 20), (polybench_suite, 6), (mibench_suite, 8)],
    )
    def test_suites_have_expected_size(self, suite_factory, minimum):
        assert len(suite_factory()) >= minimum

    @pytest.mark.parametrize(
        "suite_factory", [llvm_vectorizer_suite, polybench_suite, mibench_suite]
    )
    def test_every_kernel_lowers_and_verifies(self, suite_factory):
        for kernel in suite_factory():
            ir = lower_kernel(kernel)
            assert verify_function(ir, raise_on_error=False) == []
            assert len(ir.innermost_loops()) >= 1

    def test_test_benchmarks_are_twelve(self):
        suite = held_out_benchmarks()
        assert len(suite) == 12
        assert len(set(suite.names())) == 12

    def test_test_benchmarks_subset_of_full_suite(self):
        full_names = set(llvm_vectorizer_suite().names())
        assert set(held_out_benchmarks().names()) <= full_names

    def test_dot_product_kernel_matches_paper(self, dot_kernel):
        assert "vec[512]" in dot_kernel.source
        assert "aligned(16)" in dot_kernel.source
        ir = lower_kernel(dot_kernel)
        assert ir.innermost_loops()[0].trip_count == 512

    def test_mibench_contains_non_vectorizable_programs(self):
        from repro.analysis.loopinfo import analyze_loop

        suite = mibench_suite()
        non_vectorizable = 0
        for kernel in suite:
            ir = lower_kernel(kernel)
            for loop in ir.innermost_loops():
                if not analyze_loop(ir, loop).is_vectorizable:
                    non_vectorizable += 1
                    break
        assert non_vectorizable >= 2  # e.g. crc32, adpcm

    def test_polybench_kernels_have_nested_loops(self):
        for kernel in polybench_suite():
            ir = lower_kernel(kernel)
            assert any(loop.depth_below >= 2 for loop in ir.top_level_loops())


class TestSyntheticGenerator:
    def test_requested_count_generated(self):
        suite = generate_synthetic_dataset(SyntheticDatasetConfig(count=40, seed=0))
        assert len(suite) == 40

    def test_deterministic_given_seed(self):
        first = generate_synthetic_dataset(SyntheticDatasetConfig(count=15, seed=3))
        second = generate_synthetic_dataset(SyntheticDatasetConfig(count=15, seed=3))
        assert [k.source for k in first] == [k.source for k in second]

    def test_different_seeds_differ(self):
        first = generate_synthetic_dataset(SyntheticDatasetConfig(count=15, seed=1))
        second = generate_synthetic_dataset(SyntheticDatasetConfig(count=15, seed=2))
        assert [k.source for k in first] != [k.source for k in second]

    def test_sources_are_unique(self):
        suite = generate_synthetic_dataset(SyntheticDatasetConfig(count=60, seed=0))
        sources = [kernel.source for kernel in suite]
        assert len(set(sources)) == len(sources)

    def test_all_generated_kernels_compile(self):
        suite = generate_synthetic_dataset(SyntheticDatasetConfig(count=60, seed=5))
        for kernel in suite:
            ir = lower_kernel(kernel)
            assert verify_function(ir, raise_on_error=False) == []

    def test_parameter_space_exceeds_paper_dataset_size(self):
        # The paper generates "more than 10,000 synthetic loop examples".
        assert parameter_space_size() > 10_000

    def test_template_restriction(self):
        suite = generate_synthetic_dataset(
            SyntheticDatasetConfig(count=10, seed=0, templates=["reduction"])
        )
        assert all("acc" in kernel.source for kernel in suite)

    def test_trip_count_bounds_respected(self):
        config = SyntheticDatasetConfig(count=20, seed=0, min_trip_count=512,
                                        max_trip_count=1024)
        suite = generate_synthetic_dataset(config)
        for kernel in suite:
            ir = lower_kernel(kernel)
            for loop in ir.innermost_loops():
                if loop.trip_count is not None and loop.trip_count > 4:
                    assert loop.trip_count <= 1100

    def test_all_templates_produce_valid_code(self):
        for template in TEMPLATES:
            suite = generate_synthetic_dataset(
                SyntheticDatasetConfig(count=3, seed=0, templates=[template])
            )
            assert len(suite) >= 1
            for kernel in suite:
                lower_kernel(kernel)
