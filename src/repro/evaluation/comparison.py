"""Measuring a kernel suite under every method the paper compares.

Two layers live here:

* :class:`ComparisonRunner` / :class:`TaskComparison` — the task-generic
  protocol: any mapping of named agents x any kernel suite x any registered
  :class:`repro.tasks.OptimizationTask` produces the paper's speedup matrix
  (Figures 7-9), with every measurement routed through the run-wide reward
  cache (and sharded evaluation service, when attached) and a per-site
  decision log recording what every agent chose where.
* :func:`train_reference_agents` / :func:`compare_methods` — the original
  vectorization-specific drivers behind the Figure 7/8/9 reproductions,
  kept as-is (they bundle PPO training, brute-force labelling and the
  Polly comparison into one call).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.agents.base import VectorizationAgent
from repro.agents.baseline import BaselineAgent
from repro.agents.brute_force import BruteForceAgent
from repro.agents.decision_tree import DecisionTreeAgent
from repro.agents.nns import NearestNeighborAgent
from repro.agents.policy_agent import PolicyAgent
from repro.agents.random_search import RandomSearchAgent
from repro.cache.reward_cache import RewardCache, resolve_cache
from repro.core.framework import TrainingConfig, build_embedding_model
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.embedding.ast_paths import extract_path_contexts
from repro.embedding.code2vec import Code2VecModel
from repro.embedding.vocab import normalize_identifiers
from repro.machine.description import MachineDescription
from repro.polly.optimizer import PollyOptimizer
from repro.rl.env import VectorizationEnv, build_samples
from repro.rl.policy import make_policy
from repro.evaluation.splits import KernelSplit
from repro.rl.ppo import PPOConfig, PPOTrainer, TrainingHistory
from repro.tasks import OptimizationTask, resolve_task


@dataclass
class MethodComparison:
    """Speed-ups over the baseline per kernel and method (Figures 7/8/9)."""

    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)

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


# ---------------------------------------------------------------------------
# Task-generic comparison protocol
# ---------------------------------------------------------------------------


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

    The task-generic counterpart of :class:`MethodComparison`: the same
    per-benchmark matrix the paper plots in Figures 7-9, plus the raw
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

    The runner owns the shared measurement plumbing: one pipeline, one
    reward cache (adopted from the ``evaluation_service`` when one is
    attached, so worker shards and in-process measurements see each other's
    results), and the task whose ``decision_sites``/``apply`` define what
    is decided and how it is measured.  Agents are passed to :meth:`run`
    by name; :meth:`default_agents` builds the training-free trio
    (baseline / random / brute force) wired to the runner's plumbing.
    """

    def __init__(
        self,
        task: Optional[OptimizationTask] = None,
        pipeline: Optional[CompileAndMeasure] = None,
        machine: Optional[MachineDescription] = None,
        embedding_model: Optional[Code2VecModel] = None,
        reward_cache: Optional[RewardCache] = None,
        evaluation_service=None,
    ):
        self.task = resolve_task(task)
        self.evaluation_service = evaluation_service
        if evaluation_service is not None:
            # The service's workers measure under its pipeline's machine; a
            # disagreeing explicit pipeline would silently mix measurements
            # from two machines, so mirror evaluate_requests' guard here.
            # (A distinct but value-equal pipeline is fine.)
            service_pipeline = evaluation_service.pipeline
            if pipeline is None:
                pipeline = service_pipeline
            elif pipeline is not service_pipeline and (
                service_pipeline.machine != pipeline.machine
                or service_pipeline.default_symbol_value
                != pipeline.default_symbol_value
            ):
                raise ValueError(
                    "ComparisonRunner: explicit pipeline disagrees with the "
                    "evaluation service's (machine model or "
                    "default_symbol_value); build both from the same "
                    "machine description"
                )
        self.pipeline = pipeline or CompileAndMeasure(
            machine=machine or MachineDescription()
        )
        if machine is not None and machine != self.pipeline.machine:
            raise ValueError(
                "ComparisonRunner: explicit machine conflicts with the "
                "pipeline's machine; build the pipeline (or evaluation "
                "service) from that machine instead"
            )
        self.machine = self.pipeline.machine
        self.embedding_model = embedding_model
        self.reward_cache = resolve_cache(reward_cache, evaluation_service)

    # -- agents -------------------------------------------------------------

    def default_agents(self, seed: int = 0) -> "OrderedDict[str, VectorizationAgent]":
        """The training-free reference agents, sharing this runner's plumbing."""
        agents: "OrderedDict[str, VectorizationAgent]" = OrderedDict()
        agents["baseline"] = BaselineAgent(self.pipeline, task=self.task)
        agents["random"] = RandomSearchAgent(seed=seed, task=self.task)
        agents["brute_force"] = BruteForceAgent(
            self.pipeline,
            reward_cache=self.reward_cache,
            evaluation_service=self.evaluation_service,
            task=self.task,
        )
        return agents

    def _check_agent(self, name: str, agent: VectorizationAgent) -> None:
        agent_task = getattr(agent, "task", None)
        if agent_task is not None and agent_task.name != self.task.name:
            raise ValueError(
                f"agent {name!r} decides for task {agent_task.name!r} but this "
                f"comparison runs task {self.task.name!r}; construct the agent "
                f"with task={self.task.name!r}"
            )
        if self.embedding_model is None and getattr(agent, "uses_observation", True):
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
        (2) with an attached evaluation service running workers, fan the
        resulting whole-kernel applications out across the shards, so the
        comparison matrix measures in parallel; (3) apply every decision
        map through the reward cache — after phase 2 those are pure
        lookups, and serially (no workers) phase 3 simply measures inline.
        The decision sequence, decision log and every reported number are
        byte-identical between the serial and fanned-out paths.
        """
        for name, agent in agents.items():
            self._check_agent(name, agent)
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
        service = self.evaluation_service
        if service is not None and service.workers > 0:
            if service.cache is not self.reward_cache:
                raise ValueError(
                    "evaluation service uses a different RewardCache than "
                    "the comparison runner; share one cache (e.g. pass "
                    "service.cache)"
                )
            service.measure_applications(
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


@dataclass
class TrainedAgents:
    """Everything produced by :func:`train_reference_agents`."""

    embedding_model: Code2VecModel
    pipeline: CompileAndMeasure
    rl_agent: PolicyAgent
    nns_agent: NearestNeighborAgent
    tree_agent: DecisionTreeAgent
    random_agent: RandomSearchAgent
    brute_force_agent: BruteForceAgent
    history: TrainingHistory
    training_samples: int = 0
    reward_cache: Optional[RewardCache] = None


def _embed_loop(embedding_model: Code2VecModel, loop) -> np.ndarray:
    rename_map = normalize_identifiers(loop.nest_root)
    contexts = extract_path_contexts(loop.nest_root, rename_map=rename_map)
    return embedding_model.embed(contexts)


def train_reference_agents(
    train_kernels: Sequence[LoopKernel],
    machine: Optional[MachineDescription] = None,
    rl_steps: int = 1500,
    rl_batch_size: int = 150,
    learning_rate: float = 5e-4,
    label_kernels: Optional[Sequence[LoopKernel]] = None,
    pretrain_epochs: int = 1,
    seed: int = 0,
    reward_cache: Optional[RewardCache] = None,
    evaluation_service=None,
) -> TrainedAgents:
    """Train the RL policy and fit NNS / decision tree on brute-force labels.

    This is the shared setup for Figures 7, 8 and 9: pretrain the embedding
    on loop properties, train PPO once on the synthetic corpus, then evaluate
    the frozen agents on held-out suites.  ``label_kernels`` defaults to the
    training kernels (the paper also limits the brute-force labelling to a
    5,000-sample subset for cost reasons).

    Pass an ``evaluation_service`` (see :mod:`repro.distributed`) to shard
    reward evaluation across worker processes and/or persist it to disk; the
    service's pipeline and cache take over as the run-wide instances.
    """
    if evaluation_service is not None:
        # The service's pipeline (and its machine model) take over; a
        # conflicting explicit machine would silently measure everything
        # under the wrong model, so reject it.
        pipeline = evaluation_service.pipeline
        if machine is not None and machine is not pipeline.machine:
            raise ValueError(
                "train_reference_agents: explicit machine conflicts with the "
                "evaluation service's pipeline machine; build the service "
                "from a pipeline using that machine instead"
            )
        machine = pipeline.machine
        if reward_cache is None:
            reward_cache = evaluation_service.cache
    else:
        machine = machine or MachineDescription()
        pipeline = CompileAndMeasure(machine=machine)
    embedding_model = build_embedding_model(train_kernels)

    if pretrain_epochs > 0:
        _pretrain_embedding(
            embedding_model, train_kernels, pipeline, pretrain_epochs, seed
        )

    # One measurement cache for the whole comparison: PPO rollouts and the
    # brute-force labelling sweep share each other's evaluations.
    if reward_cache is None:
        reward_cache = RewardCache()
    samples = build_samples(train_kernels, embedding_model, pipeline)
    env = VectorizationEnv(
        samples,
        pipeline=pipeline,
        seed=seed,
        reward_cache=reward_cache,
        evaluation_service=evaluation_service,
    )
    policy = make_policy("discrete", env.observation_dim, seed=seed)
    trainer = PPOTrainer(
        env,
        policy,
        PPOConfig(learning_rate=learning_rate, train_batch_size=rl_batch_size,
                  minibatch_size=min(64, rl_batch_size), epochs_per_batch=6),
    )
    history = trainer.train(rl_steps, batch_size=rl_batch_size)
    rl_agent = PolicyAgent(policy)

    # Brute-force labels for the supervised methods.
    brute = BruteForceAgent(
        pipeline, reward_cache=reward_cache, evaluation_service=evaluation_service
    )
    label_kernels = list(label_kernels) if label_kernels is not None else list(train_kernels)
    embeddings: List[np.ndarray] = []
    labels: List[Tuple[int, int]] = []
    for kernel in label_kernels:
        try:
            loops = extract_loops(kernel.source, function_name=kernel.function_name)
        except Exception:
            continue
        for loop in loops:
            observation = _embed_loop(embedding_model, loop)
            decision = brute.select_factors(observation, kernel, loop.loop_index)
            embeddings.append(observation)
            labels.append(decision.as_tuple())
    nns_agent = NearestNeighborAgent(k=1)
    tree_agent = DecisionTreeAgent(max_depth=8, seed=seed)
    if embeddings:
        stacked = np.stack(embeddings)
        nns_agent.fit(stacked, labels)
        tree_agent.fit(stacked, labels)

    return TrainedAgents(
        embedding_model=embedding_model,
        pipeline=pipeline,
        rl_agent=rl_agent,
        nns_agent=nns_agent,
        tree_agent=tree_agent,
        # The paper's plain uniform-random baseline: one draw, no measuring,
        # so it takes no cache (best-of-N mode is opt-in via candidates>1).
        random_agent=RandomSearchAgent(seed=seed),
        brute_force_agent=brute,
        history=history,
        training_samples=len(samples),
        reward_cache=reward_cache,
    )


def _pretrain_embedding(
    embedding_model: Code2VecModel,
    kernels: Sequence[LoopKernel],
    pipeline: CompileAndMeasure,
    epochs: int,
    seed: int,
) -> None:
    """Self-supervised pretraining on loop-property labels (see DESIGN.md)."""
    from repro.analysis.loopinfo import analyze_loop
    from repro.embedding.pretrain import Code2VecPretrainer, loop_property_labels

    bags, labels = [], []
    for kernel in kernels:
        try:
            loops = extract_loops(kernel.source, function_name=kernel.function_name)
            ir_function = pipeline.lower_kernel(kernel)
            ir_loops = ir_function.innermost_loops()
        except Exception:
            continue
        for loop in loops:
            if loop.loop_index >= len(ir_loops):
                continue
            rename_map = normalize_identifiers(loop.nest_root)
            bags.append(extract_path_contexts(loop.nest_root, rename_map=rename_map))
            labels.append(
                loop_property_labels(analyze_loop(ir_function, ir_loops[loop.loop_index]))
            )
    if bags:
        Code2VecPretrainer(embedding_model, seed=seed).train(bags, labels, epochs=epochs)


def _measure_with_agent(
    pipeline: CompileAndMeasure,
    embedding_model: Code2VecModel,
    kernel: LoopKernel,
    agent: VectorizationAgent,
) -> float:
    """Cycles when ``agent`` decides the factors of every innermost loop."""
    loops = extract_loops(kernel.source, function_name=kernel.function_name)
    factors: Dict[int, Tuple[int, int]] = {}
    for loop in loops:
        observation = _embed_loop(embedding_model, loop)
        decision = agent.select_factors(observation, kernel=kernel,
                                        loop_index=loop.loop_index)
        factors[loop.loop_index] = decision.as_tuple()
    return pipeline.measure_with_factors(kernel, factors).cycles


def compare_methods(
    kernels: Sequence[LoopKernel],
    trained: TrainedAgents,
    include_polly: bool = True,
    include_supervised: bool = True,
    include_combined: bool = False,
    polly_optimizer: Optional[PollyOptimizer] = None,
) -> MethodComparison:
    """Speed-ups over the baseline for every method on every kernel."""
    pipeline = trained.pipeline
    embedding_model = trained.embedding_model
    polly = polly_optimizer or PollyOptimizer()

    methods = ["baseline", "random"]
    if include_polly:
        methods.append("polly")
    if include_supervised:
        methods.extend(["nns", "decision_tree"])
    methods.extend(["rl", "brute_force"])
    if include_combined:
        methods.append("polly+rl")

    comparison = MethodComparison(methods=methods)
    for kernel in kernels:
        baseline = pipeline.measure_baseline(kernel)
        row: Dict[str, float] = {"baseline": 1.0}
        row["random"] = baseline.cycles / _measure_with_agent(
            pipeline, embedding_model, kernel, trained.random_agent
        )
        if include_polly:
            transformed = polly.optimize(pipeline.lower_kernel(kernel))
            row["polly"] = baseline.cycles / pipeline.measure_function(
                kernel, transformed
            ).cycles
        if include_supervised:
            row["nns"] = baseline.cycles / _measure_with_agent(
                pipeline, embedding_model, kernel, trained.nns_agent
            )
            row["decision_tree"] = baseline.cycles / _measure_with_agent(
                pipeline, embedding_model, kernel, trained.tree_agent
            )
        row["rl"] = baseline.cycles / _measure_with_agent(
            pipeline, embedding_model, kernel, trained.rl_agent
        )
        row["brute_force"] = baseline.cycles / _measure_with_agent(
            pipeline, embedding_model, kernel, trained.brute_force_agent
        )
        if include_combined:
            transformed = polly.optimize(pipeline.lower_kernel(kernel))
            loops = extract_loops(kernel.source, function_name=kernel.function_name)
            factors: Dict[int, Tuple[int, int]] = {}
            for loop in loops:
                observation = _embed_loop(embedding_model, loop)
                decision = trained.rl_agent.select_factors(
                    observation, kernel=kernel, loop_index=loop.loop_index
                )
                factors[loop.loop_index] = decision.as_tuple()
            row["polly+rl"] = baseline.cycles / pipeline.measure_function(
                kernel, transformed, factors
            ).cycles
        comparison.speedups[kernel.name] = row
    return comparison
