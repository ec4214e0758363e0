"""Polly tiling as an optimization task: per-nest tile-size/fusion decisions.

The second end-to-end scenario the framework hosts (§4.1/§5 of the paper
observe that Polly's tiling and the learned vectorization factors compose).
Instead of a fixed :class:`repro.polly.optimizer.PollyConfig`, the *agent*
decides per top-level loop nest:

* **tile size** — strip-mine every SCoP innermost loop of the nest with the
  chosen size (``1`` = leave the nest untiled),
* **fuse** — whether to run the adjacency fusion pass after tiling.

Decisions are applied on the lowered IR through the existing
:mod:`repro.polly` transforms and measured with
``pipeline.measure_function`` (the baseline cost model still picks the
vectorization factors of the transformed code, exactly as the Figure-8
"polly" configuration does).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.tasks.base import Action, DecisionSite, OptimizationTask, TaskApplication

if TYPE_CHECKING:
    from repro.core.pipeline import CompilationResult, CompileAndMeasure
    from repro.datasets.kernels import LoopKernel
    from repro.ir.nodes import IRFunction

#: Tile-size menu: 1 means "do not tile this nest"; the rest bracket Polly's
#: own 32x32 default.
DEFAULT_TILE_SIZES: Tuple[int, ...] = (1, 8, 16, 32, 64, 128)
#: Fusion flag menu: run the adjacency fusion pass or not.
FUSION_CHOICES: Tuple[int, ...] = (0, 1)


class PollyTilingTask(OptimizationTask):
    """Decide a (tile size, fuse flag) pair per top-level loop nest."""

    name = "polly-tiling"
    action_labels = ("tile", "fuse")

    def __init__(self, tile_sizes: Sequence[int] = DEFAULT_TILE_SIZES):
        self.menus = (tuple(tile_sizes), FUSION_CHOICES)

    def default_action(self) -> Action:
        return (1, 0)

    # -- decision sites -----------------------------------------------------

    def decision_sites(self, kernel: "LoopKernel") -> List[DecisionSite]:
        """One site per outermost loop nest, in source order.

        The extractor reports innermost loops; distinct nest roots, in
        first-seen order, are exactly the function's outermost nests — the
        same order lowering emits them (loops not enclosed by another loop,
        including nests inside ``if`` regions), so site index ``i``
        addresses the ``i``-th outermost IR loop ``_transform`` visits.
        """
        from repro.core.loop_extractor import extract_loops

        loops = extract_loops(kernel.source, function_name=kernel.function_name)
        sites: List[DecisionSite] = []
        seen_roots: set = set()
        for loop in loops:
            if id(loop.nest_root) in seen_roots:
                continue
            seen_roots.add(id(loop.nest_root))
            sites.append(
                DecisionSite(
                    index=len(sites),
                    ast_node=loop.nest_root,
                    source_line=loop.source_line,
                    description=f"loop nest #{len(sites)} of {loop.function_name}",
                    payload=loop,
                )
            )
        return sites

    # -- transformation -----------------------------------------------------

    def _transform(
        self,
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        decisions: Dict[int, Action],
    ) -> Tuple["IRFunction", int, int]:
        """Tile per-nest, then optionally fuse; returns (ir, tiled, fused).

        Nests are visited in the same order :meth:`decision_sites` numbers
        them: every loop not enclosed by another loop, in region order,
        *including* nests sitting inside conditionals (an ``if``-wrapped
        nest is its own decision site, so the walk recurses through
        :class:`Conditional` regions — counting only direct body children
        would mis-attribute every decision after the conditional).  Tiling
        runs first so those indices stay stable; fusion — a whole-body
        pass, as in :class:`repro.polly.optimizer.PollyConfig` — runs last
        when any decided site asked for it.
        """
        from repro.ir.nodes import Conditional, Loop
        from repro.polly.scop import detect_scop
        from repro.polly.transforms import (
            clone_function,
            fuse_adjacent_loops,
            tile_loop_nest,
        )

        transformed = clone_function(pipeline.lower_kernel(kernel))
        tiled = 0
        cursor = {"nest_index": 0}

        def rewrite_region(nodes):
            nonlocal tiled
            new_nodes = []
            for node in nodes:
                if isinstance(node, Loop):
                    decision = decisions.get(cursor["nest_index"])
                    cursor["nest_index"] += 1
                    if decision is not None and decision[0] > 1:
                        scop = detect_scop(transformed, node)
                        if scop.is_scop:
                            tile_size = int(decision[0])
                            node = tile_loop_nest(
                                transformed,
                                node,
                                tile_size=tile_size,
                                # The agent's choice is authoritative: tile
                                # whenever a tile actually fits the trip count.
                                min_trip_count=tile_size + 1,
                                min_working_set_bytes=0.0,
                            )
                            tiled += 1
                elif isinstance(node, Conditional):
                    node.then_body = rewrite_region(node.then_body)
                    node.else_body = rewrite_region(node.else_body)
                new_nodes.append(node)
            return new_nodes

        transformed.body = rewrite_region(transformed.body)
        fused = 0
        if any(decision[1] for decision in decisions.values()):
            before = len(transformed.all_loops())
            transformed.body = fuse_adjacent_loops(transformed.body)
            fused = max(0, before - len(transformed.all_loops()))
        return transformed, tiled, fused

    # -- measurement --------------------------------------------------------

    def evaluate(
        self,
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        site_index: int,
        action: Action,
    ) -> "CompilationResult":
        action = self.cache_key(action)
        transformed, _, _ = self._transform(
            pipeline, kernel, {int(site_index): action}
        )
        return pipeline.measure_function(kernel, transformed)

    def apply(
        self,
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        decisions: Dict[int, Action],
        reward_cache=None,
    ) -> TaskApplication:
        normalized = {
            int(index): self.cache_key(action) for index, action in decisions.items()
        }
        transformed, tiled, fused = self._transform(pipeline, kernel, normalized)
        if reward_cache is not None:
            result, _ = reward_cache.measure_application(
                self.application_key(reward_cache, pipeline, kernel, normalized),
                lambda: pipeline.measure_function(kernel, transformed),
            )
        else:
            result = pipeline.measure_function(kernel, transformed)
        return TaskApplication(
            kernel_name=kernel.name,
            decisions=normalized,
            result=result,
            description=f"tiled {tiled} nest(s), fused {fused} loop(s)",
        )
