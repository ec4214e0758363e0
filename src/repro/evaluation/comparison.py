"""Measuring a kernel suite under every method the paper compares.

One protocol: :class:`ComparisonRunner` takes any mapping of named agents,
any kernel suite and any registered :class:`repro.tasks.OptimizationTask`
and produces the paper's speedup matrix (Figures 7-9) as a
:class:`TaskComparison`, with every measurement routed through the run's
one evaluation service (its reward cache, and its worker shards when it
has them) and a per-site decision log recording what every agent chose
where.  Two helpers complete
the paper's line-up on that vocabulary: :func:`fit_supervised_agents` fits
the NNS / decision-tree baselines on the runner's own brute-force labels,
and :func:`add_polly_columns` appends the whole-function ``polly`` and
``polly+<method>`` columns to a finished comparison.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.agents.base import VectorizationAgent
from repro.agents.baseline import BaselineAgent
from repro.agents.brute_force import BruteForceAgent
from repro.agents.decision_tree import DecisionTreeAgent
from repro.agents.nns import NearestNeighborAgent
from repro.agents.random_search import RandomSearchAgent
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed.service import EvaluationService
from repro.embedding.code2vec import Code2VecModel
from repro.polly.optimizer import PollyOptimizer
from repro.evaluation.splits import KernelSplit
from repro.tasks import OptimizationTask, resolve_task


@dataclass
class SiteDecision:
    """One agent's chosen action for one decision site (the decision log)."""

    kernel: str
    method: str
    site_index: int
    action: Tuple[int, ...]
    source_line: int = 0
    description: str = ""


@dataclass
class TaskComparison:
    """Speed-ups over the baseline per kernel and method, for one task.

    The per-benchmark matrix the paper plots in Figures 7-9, plus the raw
    cycles, the per-site decision log, and the cache traffic the run
    generated (hits vs simulator misses), so a warm-store rerun can prove
    it recompiled nothing.
    """

    task: str
    methods: List[str] = field(default_factory=list)
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cycles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    baseline_cycles: Dict[str, float] = field(default_factory=dict)
    decision_log: List[SiteDecision] = field(default_factory=list)
    #: Reward-cache traffic attributable to this run (stats deltas).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    def geomean(self, method: str) -> float:
        from repro.evaluation.report import geometric_mean

        values = [per.get(method, float("nan")) for per in self.speedups.values()]
        return geometric_mean([v for v in values if v == v and v > 0])

    def average(self, method: str) -> float:
        values = [
            per[method]
            for per in self.speedups.values()
            if method in per and per[method] == per[method]
        ]
        return float(np.mean(values)) if values else float("nan")

    def decisions_for(self, kernel: str, method: str) -> Dict[int, Tuple[int, ...]]:
        """The per-site decision map one agent chose for one kernel."""
        return {
            entry.site_index: entry.action
            for entry in self.decision_log
            if entry.kernel == kernel and entry.method == method
        }

    def format_table(self, title: str = ""):
        """The per-benchmark speedup matrix (Figure 7/8/9 style)."""
        from repro.evaluation.report import format_speedup_table

        return format_speedup_table(
            self.speedups,
            self.methods,
            title=title or f"speedup over baseline (task: {self.task})",
        )

    def summary_table(self, title: str = ""):
        """Task-tagged per-method geomean/average summary."""
        from repro.evaluation.report import format_task_summary_table

        return format_task_summary_table(self, title=title)

    def cache_report(self, title: str = "comparison reward cache"):
        """How this run's measurements were served (hits vs simulations).

        A fully cache-served run (every reward answered by a warm store)
        reports its hits; the explicit "no evaluations" table only appears
        when the comparison genuinely measured nothing — an empty kernel
        list, not a warm cache.
        """
        from repro.evaluation.report import (
            format_comparison_cache_table,
            format_no_evaluations_table,
        )

        if self.cache_lookups == 0:
            return format_no_evaluations_table(title=title)
        return format_comparison_cache_table(self, title=title)


@dataclass
class SplitComparison:
    """One task measured on both sides of a train/test kernel split.

    ``train`` is the comparison on the kernels the policy was (or would
    be) trained on; ``test`` is the same agents on the held-out kernels.
    The gap between the two rows' geomeans is the generalization story
    the paper tells in §5: an RL geomean that survives the move to
    ``test`` means the policy learned the embedding -> action mapping
    rather than the training kernels.
    """

    task: str
    split: KernelSplit
    train: TaskComparison
    test: TaskComparison

    @property
    def sides(self) -> "OrderedDict[str, TaskComparison]":
        return OrderedDict([("train", self.train), ("test", self.test)])

    def generalization_gap(self, method: str) -> float:
        """``train geomean - test geomean`` for one method (0 is ideal)."""
        return self.train.geomean(method) - self.test.geomean(method)


@dataclass
class GeneralizationMatrix:
    """Held-out-kernel matrix: every task x {train, test} x every method.

    The return shape of ``compare_all_tasks(kernel_split=...)``: an
    ordered ``task name -> SplitComparison`` mapping plus the split that
    produced it.  Mapping-style access (``matrix["unrolling"].test``)
    reaches any cell; :meth:`format_table` renders the whole matrix as
    the two-rows-per-task table the transfer protocol reports.
    """

    split: KernelSplit
    tasks: "OrderedDict[str, SplitComparison]" = field(default_factory=OrderedDict)

    def __getitem__(self, task: str) -> SplitComparison:
        return self.tasks[task]

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def items(self):
        return self.tasks.items()

    @property
    def methods(self) -> List[str]:
        for entry in self.tasks.values():
            return list(entry.train.methods)
        return []

    def format_table(self, title: str = ""):
        from repro.evaluation.report import format_generalization_table

        return format_generalization_table(self, title=title)


class ComparisonRunner:
    """Runs agents x kernels x one task into a :class:`TaskComparison`.

    The runner measures through one ``evaluation_service`` (the run's
    shared one, or a private serial service) and reads its ``pipeline``
    and ``reward_cache`` from it, so worker shards and in-process
    measurements see each other's results; the task's
    ``decision_sites``/``apply`` define what is decided and how it is
    measured.  Agents are passed to :meth:`run` by name;
    :meth:`default_agents` builds the training-free trio (baseline /
    random / brute force) wired to the same service.
    """

    def __init__(
        self,
        task: Optional[OptimizationTask] = None,
        *,
        evaluation_service: Optional[EvaluationService] = None,
        embedding_model: Optional[Code2VecModel] = None,
    ):
        self.task = resolve_task(task)
        self.evaluation_service = evaluation_service or EvaluationService(CompileAndMeasure())
        self.pipeline = self.evaluation_service.pipeline
        self.reward_cache = self.evaluation_service.cache
        self.embedding_model = embedding_model

    # -- agents -------------------------------------------------------------

    def default_agents(self, seed: int = 0) -> "OrderedDict[str, VectorizationAgent]":
        """The training-free reference agents, sharing this runner's plumbing."""
        service, task = self.evaluation_service, self.task
        agents: "OrderedDict[str, VectorizationAgent]" = OrderedDict()
        agents["baseline"] = BaselineAgent(service.pipeline, task=task)
        agents["random"] = RandomSearchAgent(seed=seed, task=task)
        agents["brute_force"] = BruteForceAgent(evaluation_service=service, task=task)
        return agents

    def _check_agent(self, name: str, agent: VectorizationAgent) -> None:
        if agent.task is not None and agent.task.name != self.task.name:
            raise ValueError(
                f"agent {name!r} decides for task {agent.task.name!r} but this "
                f"comparison runs task {self.task.name!r}; construct the agent "
                f"with task={self.task.name!r}"
            )
        if self.embedding_model is None and agent.uses_observation:
            # Without an embedding model the runner can only hand agents a
            # placeholder observation; an embedding-driven agent (NNS, tree,
            # policy) would then make the same decision at every site and
            # the table would present that garbage as a real comparison.
            raise ValueError(
                f"agent {name!r} decides from the site embedding but this "
                "ComparisonRunner has no embedding_model; pass the model the "
                "agent was fitted/trained with"
            )

    # -- observations -------------------------------------------------------

    def _observation(self, site) -> np.ndarray:
        if self.embedding_model is None:
            # Only reachable for observation-ignoring agents (baseline,
            # random, brute force) — _check_agent rejects the rest.
            return np.zeros(1)
        return self.task.observation_features(site, self.embedding_model)

    # -- the protocol -------------------------------------------------------

    def run(
        self,
        agents: Mapping[str, VectorizationAgent],
        kernels: Sequence[LoopKernel],
    ) -> TaskComparison:
        """Measure every agent on every kernel under this runner's task.

        Three phases: (1) per kernel, measure the baseline once (cached)
        and let every agent decide an action per decision site (logged);
        (2) when the evaluation service runs workers, fan the
        resulting whole-kernel applications out across the shards, so the
        comparison matrix measures in parallel; (3) apply every decision
        map through the reward cache — after phase 2 those are pure
        lookups, and serially (no workers) phase 3 simply measures inline.
        The decision sequence, decision log and every reported number are
        byte-identical between the serial and fanned-out paths.
        """
        for name, agent in agents.items():
            self._check_agent(name, agent)
        # Rows, baselines and the decision log are keyed by kernel name: two
        # kernels sharing one would overwrite each other's row and merge
        # their decisions_for() maps.
        name_counts = Counter(kernel.name for kernel in kernels)
        duplicated = sorted(name for name, count in name_counts.items() if count > 1)
        if duplicated:
            raise ValueError(
                f"ComparisonRunner.run: duplicate kernel name(s) {duplicated}; "
                "every kernel in one comparison needs a distinct name"
            )
        hits_before = self.reward_cache.stats.hits
        misses_before = self.reward_cache.stats.misses
        comparison = TaskComparison(task=self.task.name, methods=list(agents))

        # Phase 1: decisions.  No agent's decision depends on any apply
        # result (brute-force site sweeps route their own reward queries
        # through the shared cache/service), so every (kernel, agent)
        # decision map exists before anything is applied — which is what
        # lets phase 2 parallelize per kernel.
        plans: List[Tuple[LoopKernel, object, List[Tuple[str, Dict[int, Tuple[int, ...]]]]]] = []
        for kernel in kernels:
            baseline, _ = self.reward_cache.measure_baseline(self.pipeline, kernel)
            sites = self.task.decision_sites(kernel)
            observations = [self._observation(site) for site in sites]
            comparison.baseline_cycles[kernel.name] = baseline.cycles
            per_agent: List[Tuple[str, Dict[int, Tuple[int, ...]]]] = []
            for name, agent in agents.items():
                decisions: Dict[int, Tuple[int, ...]] = {}
                for site, observation in zip(sites, observations):
                    chosen = agent.select_factors(
                        observation, kernel=kernel, loop_index=site.index
                    )
                    action = self.task.cache_key(chosen.as_tuple())
                    decisions[site.index] = action
                    comparison.decision_log.append(
                        SiteDecision(
                            kernel=kernel.name,
                            method=name,
                            site_index=site.index,
                            action=action,
                            source_line=site.source_line,
                            description=site.description,
                        )
                    )
                per_agent.append((name, decisions))
            plans.append((kernel, baseline, per_agent))

        # Phase 2: fan the applications out across the service's worker
        # shards; their measurements land in the shared cache (including a
        # disk-backed store), making phase 3 lookup-only.  The service's
        # backend decides where — a local pool or the multi-host fleet —
        # so a comparison can span machines without code changes.
        # A serial service dispatches nothing here.
        self.evaluation_service.measure_applications(
            self.task,
            [
                (kernel, decisions)
                for kernel, _baseline, per_agent in plans
                for _name, decisions in per_agent
            ],
        )

        # Phase 3: the original serial apply loop, unchanged — it reports
        # exactly what the task's apply measures, whether that answer
        # comes from the warm cache (fanned-out or rerun) or is simulated
        # inline right here (serial cold run).
        for kernel, baseline, per_agent in plans:
            speedup_row: Dict[str, float] = {}
            cycles_row: Dict[str, float] = {}
            for name, decisions in per_agent:
                application = self.task.apply(
                    self.pipeline, kernel, decisions, reward_cache=self.reward_cache
                )
                cycles_row[name] = application.result.cycles
                speedup_row[name] = (
                    baseline.cycles / application.result.cycles
                    if application.result.cycles > 0
                    else float("inf")
                )
            comparison.speedups[kernel.name] = speedup_row
            comparison.cycles[kernel.name] = cycles_row
        comparison.cache_hits = self.reward_cache.stats.hits - hits_before
        comparison.cache_misses = self.reward_cache.stats.misses - misses_before
        return comparison

    def run_split(
        self,
        agents: Mapping[str, VectorizationAgent],
        kernels: Sequence[LoopKernel],
        split: KernelSplit,
        training_kernel_names: Optional[Sequence[str]] = None,
    ) -> SplitComparison:
        """:meth:`run` on both sides of a train/test kernel split.

        When the caller knows which kernels its agents actually trained
        on, passing ``training_kernel_names`` re-checks the split against
        them — a "test" side containing training kernels would report
        memorization as generalization.
        """
        if training_kernel_names is not None:
            split.assert_no_leakage(training_kernel_names)
        train_kernels, test_kernels = split.partition(kernels)
        return SplitComparison(
            task=self.task.name,
            split=split,
            train=self.run(agents, train_kernels),
            test=self.run(agents, test_kernels),
        )


def fit_supervised_agents(
    runner: ComparisonRunner,
    label_kernels: Sequence[LoopKernel],
    seed: int = 0,
) -> "OrderedDict[str, VectorizationAgent]":
    """Fit the paper's supervised baselines (§3.5) on brute-force labels.

    Every decision site of ``label_kernels`` is embedded with the runner's
    model and labelled by the runner's own brute-force agent, so labelling
    shares the run's reward cache, store and evaluation service (the paper
    likewise labels a subset of the training set for cost reasons).
    Returns ``{"nns": ..., "decision_tree": ...}`` ready to join a
    :meth:`ComparisonRunner.run` line-up under the runner's task.
    """
    task = runner.task
    brute = runner.default_agents()["brute_force"]
    observations: List[np.ndarray] = []
    labels: List[Tuple[int, ...]] = []
    for kernel in label_kernels:
        for site in task.decision_sites(kernel):
            observation = task.observation_features(site, runner.embedding_model)
            decision = brute.select_factors(
                observation, kernel=kernel, loop_index=site.index
            )
            observations.append(observation)
            labels.append(decision.as_tuple())
    stacked = np.stack(observations)
    return OrderedDict(
        nns=NearestNeighborAgent(k=1).fit(stacked, labels),
        decision_tree=DecisionTreeAgent(max_depth=8, seed=seed, task=task).fit(
            stacked, labels
        ),
    )


def add_polly_columns(
    comparison: TaskComparison,
    kernels: Sequence[LoopKernel],
    pipeline: CompileAndMeasure,
    combine_with: Sequence[str] = (),
) -> TaskComparison:
    """Append the whole-function Polly columns to a finished comparison.

    ``polly`` is the fixed-configuration polyhedral pass with the baseline
    cost model vectorizing its output (Figures 7-9).  Each method named in
    ``combine_with`` adds ``polly+<method>`` (Figure 8): the same
    transformed function vectorized with the (VF, IF) factors that method
    chose — ``comparison.decisions_for(kernel, method)`` — which therefore
    needs a vectorization comparison.  ``kernels`` are the ones
    ``comparison`` was run on; returns ``comparison`` for chaining.
    """
    if combine_with and comparison.task != "vectorization":
        raise ValueError(
            f"polly+<method> applies (VF, IF) decisions, but this comparison "
            f"ran task {comparison.task!r}"
        )
    polly = PollyOptimizer()
    columns = [("polly", None)] + [(f"polly+{method}", method) for method in combine_with]
    for kernel in kernels:
        transformed = polly.optimize(pipeline.lower_kernel(kernel))
        for column, method in columns:
            factors = comparison.decisions_for(kernel.name, method) if method else None
            cycles = pipeline.measure_function(kernel, transformed, factors).cycles
            comparison.cycles[kernel.name][column] = cycles
            comparison.speedups[kernel.name][column] = (
                comparison.baseline_cycles[kernel.name] / cycles
            )
    comparison.methods.extend(column for column, _ in columns)
    return comparison
