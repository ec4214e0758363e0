"""Loop unrolling as an optimization task: per-loop unroll-factor decisions.

The third end-to-end scenario the framework hosts, and the first the
ROADMAP's "more tasks (unroll factors, ...)" item asked for.  Per innermost
loop the agent picks an unroll factor from a small power-of-two menu; the
decision is realised exactly like the paper realises vectorization factors
(Figure 4): a ``#pragma clang loop unroll_count(U)`` line is injected
immediately before the loop, and the kernel is measured with the factors
that pragma requests.

**Cost semantics.**  Interleaving *is* unroll-and-jam of the (vector) loop,
so the simulator's interleave model — loop-overhead amortisation, latency
hiding for reductions and recurrences, register-pressure/spill growth at
extreme factors — is the unrolling cost model: ``unroll_count(U)`` pins the
loop's unroll/interleave factor to ``U`` while the vector width stays with
the baseline cost model (``unroll_count(1)`` disables unrolling, as in
clang).  The menu stays within ``MachineDescription.max_interleave`` so the
planner never has to clamp a requested factor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

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

#: Unroll-factor menu: 1 means "do not unroll"; powers of two within the
#: default machine's ``max_interleave`` so requests are applied verbatim.
DEFAULT_UNROLL_FACTORS: Tuple[int, ...] = (1, 2, 4, 8, 16)


class UnrollingTask(OptimizationTask):
    """Decide an unroll factor per innermost loop, applied via pragmas."""

    name = "unrolling"
    action_labels = ("unroll",)

    def __init__(self, unroll_factors: Sequence[int] = DEFAULT_UNROLL_FACTORS):
        self.menus = (tuple(unroll_factors),)

    def default_action(self) -> Action:
        return (1,)

    def baseline_action(
        self, pipeline: "CompileAndMeasure", kernel: "LoopKernel", site_index: int
    ) -> Action:
        """The baseline cost model's own interleave pick for one loop.

        The model's interleave *is* its unroll decision, so reproducing it
        per site makes the all-baseline decision map measure exactly the
        ``measure_baseline`` cycles (the x=1.0 row of every comparison).
        """
        ir_function = pipeline.lower_kernel(kernel)
        loops = ir_function.innermost_loops()
        if site_index >= len(loops):
            return self.default_action()
        loop = loops[site_index]
        decision = pipeline.baseline_model.decide_loop(
            ir_function, loop, pipeline.loop_analyses(kernel)[loop.loop_id]
        )
        return snap_to_menus(self.menus, (decision.interleave,))

    # -- decision sites -----------------------------------------------------

    def decision_sites(self, kernel: "LoopKernel") -> List[DecisionSite]:
        """One site per innermost loop — the same sites vectorization uses.

        The shared enumeration walks conditionals exactly like lowering
        does, so site index ``i`` addresses the ``i``-th entry of the
        lowered IR's ``innermost_loops()`` even when a nest sits inside an
        ``if`` region (the PR-3 Polly bug class; regression-tested for
        this task too).
        """
        return innermost_loop_sites(kernel)

    # -- measurement --------------------------------------------------------

    def _factors_for(
        self, pipeline: "CompileAndMeasure", kernel: "LoopKernel",
        decisions: Dict[int, Action],
    ) -> Dict[int, Tuple[int, int]]:
        """Effective (VF, IF) per decided loop: baseline width x unroll."""
        ir_function = pipeline.lower_kernel(kernel)
        loops = ir_function.innermost_loops()
        analyses = pipeline.loop_analyses(kernel)
        factors: Dict[int, Tuple[int, int]] = {}
        for site_index, action in decisions.items():
            if not 0 <= site_index < len(loops):
                continue
            loop = loops[site_index]
            decision = pipeline.baseline_model.decide_loop(
                ir_function, loop, analyses[loop.loop_id]
            )
            factors[site_index] = (decision.vf, int(action[0]))
        return factors

    def evaluate(
        self,
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        site_index: int,
        action: Action,
    ) -> "CompilationResult":
        action = self.cache_key(action)
        factors = self._factors_for(pipeline, kernel, {int(site_index): action})
        return pipeline.measure_with_factors(kernel, factors)

    def _annotate(self, kernel: "LoopKernel", decisions: Dict[int, Action]):
        """The canonical decision map and the source annotated with it."""
        from repro.core.pragma_injector import inject_loop_pragmas
        from repro.frontend.pragmas import LoopPragma

        normalized = {
            int(index): self.cache_key(action) for index, action in decisions.items()
        }
        return normalized, inject_loop_pragmas(
            kernel.source,
            {
                index: LoopPragma(unroll_count=action[0])
                for index, action in normalized.items()
            },
            function_name=kernel.function_name,
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
        """Inject ``unroll_count`` pragmas; measure the (baseline VF, U) factors.

        ``unroll_count(U)`` asks clang for exactly the factors
        :meth:`evaluate` requests, so a full application is priced by
        ``measure_with_factors`` on the kernel's cached IR and measures what
        the per-site rewards predicted.  The annotated source is the
        application's output text and its reward-cache key; the factor map
        is derived only on a cache miss.
        """
        normalized, annotated = self._annotate(kernel, decisions)

        def compute():
            factors = self._factors_for(pipeline, kernel, normalized)
            return pipeline.measure_with_factors(kernel, factors)

        if reward_cache is None:
            result = compute()
        else:
            key = reward_cache.annotated_source_key(pipeline, kernel, annotated)
            result, _ = reward_cache.measure_application(key, compute)
        return TaskApplication(
            kernel_name=kernel.name,
            decisions=normalized,
            result=result,
            transformed_source=annotated,
            description=f"injected unroll pragmas into {len(normalized)} loop(s)",
        )
