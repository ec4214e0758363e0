"""The paper's task: per-loop (VF, IF) vectorization-pragma decisions."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.tasks.base import (
    Action,
    DecisionSite,
    OptimizationTask,
    TaskApplication,
    innermost_loop_sites,
    snap_to_menus,
)

if TYPE_CHECKING:
    from repro.cache.reward_cache import RewardCache, RewardKey
    from repro.core.pipeline import CompilationResult, CompileAndMeasure
    from repro.datasets.kernels import LoopKernel


class VectorizationTask(OptimizationTask):
    """Decide a (vectorization width, interleave count) pair per innermost loop.

    This is the hard-wired behaviour of the original reproduction, extracted
    behind the task API: decision sites are the innermost loops the
    extractor finds, the observation is the code2vec embedding of the
    enclosing nest, and both single-site evaluation and full application
    price their factors with ``pipeline.measure_with_factors`` on the
    kernel's cached IR.  A full application also writes the
    ``#pragma clang loop`` hints into the source text: that text is the
    task's output (what the paper's agent emits) and its reward-cache key.
    """

    name = "vectorization"
    action_labels = ("vf", "interleave")

    def __init__(self):
        # Imported lazily: the canonical menus live in repro.rl.spaces, and
        # importing them at module level would cycle through repro.rl.env
        # (which imports this package) during ``import repro.tasks``.
        from repro.rl.spaces import DEFAULT_IF_VALUES, DEFAULT_VF_VALUES

        self.menus = (DEFAULT_VF_VALUES, DEFAULT_IF_VALUES)

    def default_action(self) -> Action:
        return (1, 1)

    def baseline_action(
        self, pipeline: "CompileAndMeasure", kernel: "LoopKernel", site_index: int
    ) -> Action:
        """The baseline cost model's own (VF, IF) pick for one loop."""
        ir_function = pipeline.lower_kernel(kernel)
        loops = ir_function.innermost_loops()
        if site_index >= len(loops):
            return self.default_action()
        loop = loops[site_index]
        decision = pipeline.baseline_model.decide_loop(
            ir_function, loop, pipeline.loop_analyses(kernel)[loop.loop_id]
        )
        return snap_to_menus(self.menus, (decision.vf, decision.interleave))

    # -- decision sites -----------------------------------------------------

    def decision_sites(self, kernel: "LoopKernel") -> List[DecisionSite]:
        return innermost_loop_sites(kernel)

    # -- measurement --------------------------------------------------------

    def evaluate(
        self,
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        site_index: int,
        action: Action,
    ) -> "CompilationResult":
        vf, interleave = self.cache_key(action)
        return pipeline.measure_with_factors(
            kernel, {int(site_index): (vf, interleave)}
        )

    def _annotate(self, kernel: "LoopKernel", decisions: Dict[int, Action]):
        """The canonical factor map and the source annotated with it."""
        from repro.core.pragma_injector import inject_pragmas

        factor_map = {
            int(index): self.cache_key(action) for index, action in decisions.items()
        }
        return factor_map, inject_pragmas(
            kernel.source, factor_map, function_name=kernel.function_name
        )

    def application_key(
        self,
        reward_cache: "RewardCache",
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        decisions: Dict[int, Action],
    ) -> "RewardKey":
        """Keyed by the pragma-annotated source :meth:`apply` emits."""
        _, annotated = self._annotate(kernel, decisions)
        return reward_cache.annotated_source_key(pipeline, kernel, annotated)

    def apply(
        self,
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        decisions: Dict[int, Action],
        reward_cache=None,
    ) -> TaskApplication:
        factor_map, vectorized_source = self._annotate(kernel, decisions)

        def compute():
            return pipeline.measure_with_factors(kernel, factor_map)

        if reward_cache is None:
            result = compute()
        else:
            key = reward_cache.annotated_source_key(pipeline, kernel, vectorized_source)
            result, _ = reward_cache.measure_application(key, compute)
        return TaskApplication(
            kernel_name=kernel.name,
            decisions=factor_map,
            result=result,
            transformed_source=vectorized_source,
            description=f"injected pragmas into {len(factor_map)} loop(s)",
        )
