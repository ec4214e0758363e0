"""The pluggable optimization-task API and its registry.

The paper's pipeline (code2vec embedding → PPO agent → code transform →
measure) is generic over *what* decision is being made per loop: the
vectorization reproduction decides ``(VF, IF)`` pairs, a polyhedral task
decides tile sizes and fusion, future tasks may decide unroll factors or
phase orders.  :class:`OptimizationTask` is the seam: it owns the action
menus, maps kernels to decision sites, embeds each site for the agent, and
turns a chosen action back into a measured program.

Everything downstream — :class:`repro.rl.env.MultiTaskEnv`, the agents,
the :class:`repro.cache.RewardCache` key schema, the distributed evaluation
workers — talks to the task through this interface and never mentions VF or
IF by name.

Tasks register by name (:func:`register_task`) so that config files, CLI
flags (``--task polly-tiling``) and worker processes can all resolve the
same task object; :func:`resolve_task` is the single front door accepting a
name, an instance, or ``None`` (the vectorization default).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # imported lazily to avoid package import cycles
    from repro.cache.reward_cache import RewardCache, RewardKey
    from repro.core.pipeline import CompilationResult, CompileAndMeasure
    from repro.datasets.kernels import LoopKernel
    from repro.rl.spaces import ActionSpace

#: A concrete task action: one integer per decision dimension.
Action = Tuple[int, ...]


def snap_to_menus(menus: Tuple[Tuple[int, ...], ...], values) -> Action:
    """Round each component to the nearest entry of its menu.

    Ties resolve toward the smaller value (the pinned tie-break of
    :mod:`repro.rl.spaces`), so a baseline decision that falls outside a
    custom menu still maps to a legal, deterministic action.
    """
    return tuple(
        min(menu, key=lambda entry: (abs(entry - int(value)), entry))
        for menu, value in zip(menus, values)
    )


def innermost_loop_sites(kernel: "LoopKernel") -> List[DecisionSite]:
    """One :class:`DecisionSite` per innermost loop, in extractor order.

    The shared site enumeration for per-loop tasks (vectorization,
    unrolling): site index ``i`` addresses the ``i``-th entry of the
    lowered IR's ``innermost_loops()``, including loops wrapped in
    conditionals, so any indexing fix lands in every per-loop task at once.
    """
    from repro.core.loop_extractor import extract_loops

    loops = extract_loops(kernel.source, function_name=kernel.function_name)
    return [
        DecisionSite(
            index=loop.loop_index,
            ast_node=loop.nest_root,
            source_line=loop.source_line,
            description=f"innermost loop #{loop.loop_index} "
            f"of {loop.function_name}",
            payload=loop,
        )
        for loop in loops
    ]


@dataclass
class DecisionSite:
    """One unit of a kernel the task makes a decision for.

    ``index`` is the task-level site index — the same integer that keys the
    reward cache and the per-site decision maps.  ``ast_node`` is the source
    AST subtree the embedding generator reads for this site (the paper found
    feeding the whole nest performs better than the innermost loop alone).
    ``payload`` carries task-specific context, e.g. the full
    :class:`repro.core.loop_extractor.ExtractedLoop` for vectorization.
    """

    index: int
    ast_node: object
    source_line: int = 0
    description: str = ""
    payload: object = None


@dataclass
class TaskApplication:
    """Outcome of applying a full decision map to one kernel.

    ``result`` is any object with ``cycles`` and ``compile_seconds`` — a
    fresh :class:`CompilationResult`, or the cached measurement when the
    application was answered by the reward cache.
    """

    kernel_name: str
    decisions: Dict[int, Action] = field(default_factory=dict)
    result: Optional[object] = None
    #: The rewritten source text, for tasks that transform at source level
    #: (pragma injection); ``None`` for IR-level tasks (tiling).
    transformed_source: Optional[str] = None
    description: str = ""


class OptimizationTask:
    """Protocol every optimization task implements.

    Subclasses set :attr:`name` (the registry key), :attr:`action_labels`
    (one short label per decision dimension, used in info dicts and
    reports) and :attr:`menus` (the legal values per dimension), and
    implement :meth:`decision_sites`, :meth:`evaluate` and :meth:`apply`.
    """

    name: str = "task"
    #: One human-readable label per action dimension (e.g. ("vf", "interleave")).
    action_labels: Tuple[str, ...] = ()
    #: One menu of legal integer values per action dimension.
    menus: Tuple[Tuple[int, ...], ...] = ()

    # -- action space -------------------------------------------------------

    def action_space(self, kind: str = "discrete") -> "ActionSpace":
        """One of the three Figure-6 encodings over this task's menus."""
        from repro.rl.spaces import make_action_space

        return make_action_space(kind, self.menus)

    def default_action(self) -> Action:
        """The "leave it to the compiler" action (reward ~0 by construction)."""
        return tuple(menu[0] for menu in self.menus)

    def baseline_action(
        self, pipeline: "CompileAndMeasure", kernel: "LoopKernel", site_index: int
    ) -> Action:
        """The action that reproduces the compiler's own choice for one site.

        This is the x=1.0 reference of every comparison figure: applying the
        baseline action to every site must measure the same cycles as
        ``pipeline.measure_baseline``.  Tasks whose default action *is* the
        identity transform (tiling, fusion) inherit this; tasks whose menus
        overlap a decision the baseline cost model already makes
        (vectorization factors, unroll counts) override it to return the
        model's pick.
        """
        return self.default_action()

    def cache_key(self, action) -> Action:
        """Normalise an action to the canonical tuple used in cache keys.

        Every component must come from its dimension's menu: accepting
        out-of-menu values would let two inputs that transform identically
        (e.g. any truthy fuse flag) occupy distinct cache/store entries.
        """
        if not isinstance(action, (tuple, list, np.ndarray)):
            action = (action,)
        normalized = tuple(int(value) for value in action)
        if len(normalized) != len(self.menus):
            raise ValueError(
                f"task {self.name!r} actions have {len(self.menus)} "
                f"dimension(s), got {normalized!r}"
            )
        for dimension, (menu, value) in enumerate(zip(self.menus, normalized)):
            if value not in menu:
                label = (
                    self.action_labels[dimension]
                    if dimension < len(self.action_labels)
                    else f"dimension {dimension}"
                )
                raise ValueError(
                    f"task {self.name!r}: {value!r} is not in the {label} "
                    f"menu {menu!r}"
                )
        return normalized

    def info_dict(self, action: Action) -> Dict[str, float]:
        """Per-dimension labels for step-info dicts and reports."""
        return {
            label: float(value)
            for label, value in zip(self.action_labels, action)
        }

    # -- decision sites / observations -------------------------------------

    def decision_sites(self, kernel: "LoopKernel") -> List[DecisionSite]:
        """The units of ``kernel`` this task decides for, in index order."""
        raise NotImplementedError

    def observation_features(self, site: DecisionSite, embedding_model) -> np.ndarray:
        """The embedding the agent observes for one decision site.

        A site that embeds its extracted loop's nest root (every built-in
        task's sites do) reads the bag that loop keeps; any other subtree
        is extracted afresh.
        """
        from repro.core.loop_extractor import ExtractedLoop

        loop = site.payload
        if isinstance(loop, ExtractedLoop) and site.ast_node is loop.nest_root:
            return embedding_model.embed(loop.path_contexts)

        from repro.embedding.ast_paths import extract_path_contexts
        from repro.embedding.vocab import normalize_identifiers

        rename_map = normalize_identifiers(site.ast_node)
        contexts = extract_path_contexts(site.ast_node, rename_map=rename_map)
        return embedding_model.embed(contexts)

    # -- measurement --------------------------------------------------------

    def evaluate(
        self,
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        site_index: int,
        action: Action,
    ) -> "CompilationResult":
        """Measure ``kernel`` with ``action`` applied to one site only.

        Sites without a decision stay at the compiler default, mirroring how
        the paper evaluates one loop's factors at a time.  This is the
        reward query the cache and the distributed workers execute; it must
        be deterministic for a given (kernel content, machine, action).
        """
        raise NotImplementedError

    def apply(
        self,
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        decisions: Dict[int, Action],
        reward_cache=None,
    ) -> TaskApplication:
        """Apply a full per-site decision map and measure the result.

        ``reward_cache`` (a :class:`repro.cache.RewardCache`) lets the
        measurement be served from — and recorded into — the run-wide
        cache under :meth:`application_key`, so warm reruns of the
        end-to-end path simulate nothing.
        """
        raise NotImplementedError

    def application_key(
        self,
        reward_cache: "RewardCache",
        pipeline: "CompileAndMeasure",
        kernel: "LoopKernel",
        decisions: Dict[int, Action],
    ) -> "RewardKey":
        """The reward-cache key :meth:`apply` records ``decisions`` under.

        Consumers that ask whether an application is already measured (the
        serving fan-out) read it here.  The default flattens the decision
        map; the pragma tasks key by the annotated source they emit.
        """
        return reward_cache.application_key(pipeline, self, kernel, decisions)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: "OrderedDict[str, Callable[[], OptimizationTask]]" = OrderedDict()

#: The task every compatibility shim resolves to.
DEFAULT_TASK_NAME = "vectorization"


def register_task(
    name: str, factory: Callable[[], OptimizationTask], overwrite: bool = False
) -> None:
    """Register a task factory under ``name`` (see ``repro.tasks``)."""
    if not overwrite and name in _REGISTRY:
        raise ValueError(f"optimization task {name!r} is already registered")
    _REGISTRY[name] = factory


def available_tasks() -> List[str]:
    """Names of every registered task, in registration order."""
    return list(_REGISTRY)


def get_task(name: str) -> OptimizationTask:
    """Instantiate the registered task called ``name``."""
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(repr(task) for task in available_tasks()) or "none"
        raise ValueError(
            f"unknown optimization task {name!r}; registered tasks: {known}"
        )
    return factory()


def resolve_task(task=None) -> OptimizationTask:
    """The single front door: ``None`` (default), a name, or an instance."""
    if task is None:
        return get_task(DEFAULT_TASK_NAME)
    if isinstance(task, str):
        return get_task(task)
    if isinstance(task, OptimizationTask):
        return task
    raise TypeError(
        f"expected a task name, an OptimizationTask or None, got {type(task)!r}"
    )


def resolve_tasks(entries) -> List[OptimizationTask]:
    """Resolve a sequence of task names/instances, rejecting duplicates.

    The multi-task counterpart of :func:`resolve_task`, shared by every
    joint-training surface (``TrainingConfig.tasks``, ``NeuroVectorizer``,
    ``MultiTaskEnv``) so task-identity rules live in one place.
    """
    resolved = [resolve_task(entry) for entry in entries]
    names = [task.name for task in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tasks: {names}")
    return resolved
