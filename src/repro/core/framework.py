"""The NeuroVectorizer facade: embedding + agent + task application + measure.

The facade is generic over an :class:`repro.tasks.OptimizationTask`: the
task defines what is decided per site and how a decision map is applied and
measured.  There is one end-to-end path — :meth:`NeuroVectorizer.decide_sites`
→ ``task.apply`` → :class:`OptimizationResult` — and the paper's per-loop
(VF, IF) vectorization is what it does under the default task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.reward_cache import RewardCache
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompilationResult, CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed.service import EvaluationService
from repro.embedding.ast_paths import PathContext
from repro.embedding.code2vec import Code2VecConfig, Code2VecModel
from repro.embedding.vocab import build_vocabularies
from repro.machine.description import MachineDescription
from repro.tasks import OptimizationTask, resolve_task


@dataclass
class OptimizationResult:
    """Task-generic outcome of optimizing one kernel end-to-end."""

    kernel_name: str
    task: str
    decisions: Dict[int, Tuple[int, ...]]
    cycles: float
    baseline_cycles: float
    compile_seconds: float
    transformed_source: Optional[str] = None
    description: str = ""

    @property
    def speedup_over_baseline(self) -> float:
        return self.baseline_cycles / self.cycles if self.cycles > 0 else float("inf")

    @property
    def reward(self) -> float:
        """The paper's reward for this result (Equation 2)."""
        return (self.baseline_cycles - self.cycles) / max(self.baseline_cycles, 1e-9)


@dataclass
class TrainingConfig:
    """End-to-end training settings for :meth:`NeuroVectorizer.train`."""

    embedding: Code2VecConfig = field(default_factory=Code2VecConfig)
    pretrain_epochs: int = 1
    pretrain_samples: int = 200
    rl_total_steps: int = 2000
    rl_batch_size: int = 200
    learning_rate: float = 5e-5
    hidden_sizes: Tuple[int, ...] = (64, 64)
    policy: str = "discrete"
    seed: int = 0
    #: The registered optimization task this run trains for.  The default
    #: keeps the paper's (VF, IF) vectorization decision; ``"polly-tiling"``
    #: trains per-nest tile-size/fusion decisions instead.  This is the
    #: single-task compatibility shim: it is ignored when ``tasks`` is set.
    task: str = "vectorization"
    #: Multi-task joint training: the tasks one shared-trunk policy with
    #: task-conditioned head banks trains over (supersedes ``task``).
    #: Entries are registered task names or task *objects* — the latter
    #: keeps unregistered custom-task plug-ins trainable jointly, exactly
    #: as the single-task ``task=`` shim accepts them.  ``None`` means
    #: single-task training on ``task``.
    tasks: Optional[Sequence] = None
    #: Multi-task head architecture handed to ``make_policy``:
    #: ``"embedding"`` (task-embedding-conditioned shared head stacks),
    #: ``"banks"`` (the legacy per-task head banks), or ``None`` — the
    #: default — which picks "embedding" for joint runs (two or more
    #: tasks) and "banks" for single-task runs, keeping the latter
    #: byte-identical to the pre-conditioning wiring.
    conditioning: Optional[str] = None
    #: Per-task advantage normalization (running mean/std per task id),
    #: forwarded to :class:`repro.rl.ppo.PPOConfig`.  ``None`` enables it
    #: exactly for joint batches; ``True``/``False`` force it.
    per_task_advantage_norm: Optional[bool] = None
    #: Transfer protocol: a task name excluded from joint training and
    #: recorded on the framework, so a later
    #: :meth:`NeuroVectorizer.fine_tune` can train just that task's
    #: embedding row and head with the trunk frozen.  Must name one of the
    #: configured ``tasks`` (and leave at least one task to train).
    holdout_task: Optional[str] = None
    #: Held-out kernels excluded from *every* training stage (embedding
    #: vocabularies, pretraining, PPO rollouts): either a fraction in
    #: (0, 1) — split seed-stably by kernel name via
    #: :func:`repro.evaluation.splits.split_kernels` under this config's
    #: ``seed`` — or an explicit sequence of kernel names.  The resulting
    #: :class:`repro.evaluation.splits.KernelSplit` is recorded on the
    #: framework for ``compare_all_tasks(kernel_split=True)``.
    holdout_kernels: Optional[object] = None
    #: Evaluation-service settings: worker processes for sharded reward
    #: evaluation (0 = serial in-process) and the directory of the
    #: persistent cross-run reward store (None = memory only).
    workers: int = 0
    cache_dir: Optional[str] = None
    #: Fleet evaluation: ``host:port`` addresses of running
    #: :class:`repro.fleet.FleetWorker` daemons.  When set (and at least
    #: one is reachable) reward evaluation shards across those hosts
    #: instead of local worker processes; ``workers`` becomes the local
    #: fallback pool used if none answer.  ``fleet_prefetch_top_k`` is the
    #: number of most-likely next actions speculatively evaluated per
    #: upcoming sample while the trainer is busy inferring (0 disables
    #: prefetch).
    fleet_workers: Sequence[str] = ()
    fleet_prefetch_top_k: int = 8

    def resolved_tasks(self) -> Tuple[OptimizationTask, ...]:
        """The task objects this config trains (``tasks``, else ``(task,)``).

        Entries may be registered names or task instances (so unregistered
        custom tasks train jointly too); duplicates by resolved name are
        rejected.
        """
        from repro.tasks import resolve_tasks

        entries = tuple(self.tasks) if self.tasks else (self.task,)
        return tuple(resolve_tasks(entries))


@dataclass
class TrainingArtifacts:
    """Everything produced by a training run besides the framework itself."""

    history: object = None
    pretrain_result: object = None
    samples: List[object] = field(default_factory=list)
    #: Joint training: the environment samples per task name (for a
    #: single-task run, one entry equal to ``samples``).
    samples_by_task: Dict[str, List[object]] = field(default_factory=dict)


def build_embedding_model(
    kernels: Sequence[LoopKernel],
    config: Optional[Code2VecConfig] = None,
) -> Code2VecModel:
    """Build token/path vocabularies from a corpus and create the model."""
    bags: List[Tuple[PathContext, ...]] = []
    for kernel in kernels:
        try:
            loops = extract_loops(kernel.source, function_name=kernel.function_name)
        except Exception:
            continue
        bags.extend(loop.path_contexts for loop in loops)
    token_vocab, path_vocab = build_vocabularies(bags)
    return Code2VecModel(token_vocab, path_vocab, config or Code2VecConfig())


def compare_agents(
    kernels: Sequence[LoopKernel],
    agents=None,
    task=None,
    pipeline: Optional[CompileAndMeasure] = None,
    embedding_model: Optional[Code2VecModel] = None,
    reward_cache: Optional[RewardCache] = None,
    seed: int = 0,
):
    """Agents x kernels x task → the paper's speedup-over-baseline matrix.

    The task-generic front door to :class:`repro.evaluation.comparison.
    ComparisonRunner`: every registered task (vectorization, Polly tiling,
    unrolling, user plug-ins) produces the same Figure 7/8/9-style
    :class:`TaskComparison` — per-kernel speedups, per-site decision logs,
    and cache-traffic accounting.  ``agents`` is a name → agent mapping;
    when omitted the training-free baseline/random/brute-force trio runs.
    Every measurement runs on ``pipeline`` through ``reward_cache`` (fresh
    ones by default), held by one serial evaluation service, so a warm
    persistent store makes a rerun simulate nothing.
    """
    from repro.evaluation.comparison import ComparisonRunner

    runner = ComparisonRunner(
        task=task,
        evaluation_service=EvaluationService(
            CompileAndMeasure() if pipeline is None else pipeline, reward_cache
        ),
        embedding_model=embedding_model,
    )
    return runner.run(agents or runner.default_agents(seed=seed), kernels)


class NeuroVectorizer:
    """End-to-end automatic loop optimization (Figure 3 of the paper).

    ``agent`` is any :class:`repro.agents.base.VectorizationAgent`; the
    default is the trained RL policy, but NNS, decision trees, random search,
    brute force or the compiler baseline slot in identically (§3.5).
    ``task`` selects what is being decided per site (vectorization factors
    by default, Polly tile/fusion choices with ``"polly-tiling"``).

    ``evaluation_service`` is the run's one reward-evaluation handle (a
    private serial one by default); ``pipeline``, ``machine`` and
    ``reward_cache`` are read off it.
    """

    def __init__(
        self,
        embedding_model: Code2VecModel,
        agent,
        *,
        evaluation_service: Optional[EvaluationService] = None,
        task: Optional[OptimizationTask] = None,
        tasks: Optional[Sequence] = None,
        kernel_split=None,
        training_kernel_names: Optional[Sequence[str]] = None,
        holdout_task: Optional[str] = None,
    ):
        # close() shuts the service and its cache's store down.
        self.evaluation_service = evaluation_service or EvaluationService(CompileAndMeasure())
        self.pipeline = self.evaluation_service.pipeline
        self.machine = self.pipeline.machine
        # The run-wide measurement cache: shared with the training env and
        # every cache-aware agent so each consumer sees the others' work.
        self.reward_cache = self.evaluation_service.cache
        self.embedding_model = embedding_model
        self.agent = agent
        # ``tasks`` is the joint-training surface: every task the (shared)
        # agent was trained for.  ``self.task`` stays the primary task every
        # single-task method defaults to, so the pre-joint API is the
        # one-task special case.
        if tasks:
            from repro.tasks import resolve_tasks

            self.tasks = resolve_tasks(tasks)
            names = [entry.name for entry in self.tasks]
            if task is not None and resolve_task(task).name not in names:
                raise ValueError(
                    f"primary task {resolve_task(task).name!r} is not among "
                    f"tasks={names}"
                )
            primary = resolve_task(task).name if task is not None else names[0]
            self.task = next(t for t in self.tasks if t.name == primary)
        else:
            self.task = resolve_task(task)
            self.tasks = [self.task]
        # A task-aware agent deciding for a different task would feed its
        # actions straight into this task's apply/cache path — both tasks
        # may share an action arity, so the mix-up would be silent garbage
        # (VF/IF applied as tile/fuse).  Fail loudly instead.
        if agent.task is not None and agent.task.name not in {
            t.name for t in self.tasks
        }:
            raise ValueError(
                f"agent decides for task {agent.task.name!r} but the "
                f"framework runs task(s) {[t.name for t in self.tasks]}; "
                f"construct the agent with one of those tasks"
            )
        # Transfer-protocol provenance, recorded by train(): the train/test
        # kernel split (when holdout_kernels was set), the names of the
        # kernels the policy actually trained on (for leakage checks in
        # compare_all_tasks), and the task held out for fine_tune().
        self.kernel_split = kernel_split
        self.training_kernel_names = (
            tuple(str(name) for name in training_kernel_names)
            if training_kernel_names is not None
            else None
        )
        self.holdout_task = holdout_task

    # -- service lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down the evaluation service and flush/close the cache's store.

        Compacting a run-private store is one explicit call after this:
        ``framework.reward_cache.store.compact()``.
        """
        self.evaluation_service.close()
        self.reward_cache.close()

    def __enter__(self) -> "NeuroVectorizer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- statistics -------------------------------------------------------------------

    def cache_stats_report(self, title: str = "reward cache"):
        """Hit/miss statistics of the shared reward cache as a text table.

        Before any evaluation has run the report says so explicitly instead
        of rendering an all-zero table (or worse, dividing by zero).
        """
        from repro.evaluation.report import (
            format_cache_stats_table,
            format_no_evaluations_table,
        )
        from repro.frontend.cache import frontend_cache

        stats = self.reward_cache.stats
        if stats.lookups == 0 and stats.batch_deduplicated == 0:
            return format_no_evaluations_table(title=title)
        service_stats = self.evaluation_service.stats
        return format_cache_stats_table(
            stats,
            title=title,
            simulator_memo=self.pipeline.simulator_memo_stats(),
            frontend=frontend_cache().stats.as_dict(),
            # A fleet-backed service's stats carry the speculative-prefetch
            # ledger; split those hits out from demand-earned ones.
            fleet=service_stats if service_stats.remote else None,
        )

    def service_stats_report(self, title: Optional[str] = None):
        """Dispatch statistics of the evaluation service: per worker, or
        the serial batch and request counts of a serial run.

        Includes persistent store statistics when the cache has a store,
        and the robustness + prefetch counters when the service is
        fleet-backed.
        """
        from repro.evaluation.report import format_service_stats_table

        store = self.reward_cache.store
        return format_service_stats_table(
            self.evaluation_service.stats,
            store_stats=store.stats if store is not None else None,
            preloaded=self.reward_cache.preloaded,
            title=title,
        )

    # -- task routing -----------------------------------------------------------------

    def _member_task(self, task=None) -> OptimizationTask:
        """Resolve ``task`` to one of this framework's trained tasks."""
        if task is None:
            return self.task
        resolved = resolve_task(task)
        for candidate in self.tasks:
            if candidate.name == resolved.name:
                return candidate
        raise ValueError(
            f"this framework was trained for task(s) "
            f"{[t.name for t in self.tasks]}, not {resolved.name!r}"
        )

    def _agent_for_task(self, task: OptimizationTask):
        """The framework agent pinned to ``task`` (see ``for_task``)."""
        return self.agent.for_task(task)

    # -- decision making -----------------------------------------------------------------

    def decide_sites(self, kernel: LoopKernel, task=None) -> Dict[int, Tuple[int, ...]]:
        """Run the agent on every decision site; returns site → action.

        ``task`` selects one of a jointly-trained framework's tasks (the
        primary task by default) — the agent decides with that task's head
        bank and the actions are validated against that task's menus.
        """
        task = self._member_task(task)
        agent = self._agent_for_task(task)
        decisions: Dict[int, Tuple[int, ...]] = {}
        for site in task.decision_sites(kernel):
            observation = task.observation_features(site, self.embedding_model)
            chosen = agent.select_factors(
                observation, kernel=kernel, loop_index=site.index
            )
            decisions[site.index] = task.cache_key(chosen.as_tuple())
        return decisions

    # -- end-to-end optimization -----------------------------------------------------------

    def optimize_kernel(self, kernel: LoopKernel, task=None) -> OptimizationResult:
        """Decide every site, apply the task's transform, and measure.

        The task-generic end-to-end path: works for every registered task
        (for vectorization it injects pragmas, for Polly tiling it rewrites
        the IR).  ``task`` selects one of a jointly-trained framework's
        tasks.  Both the baseline and the applied measurement go through
        the run's reward cache, so with a store-backed cache a repeat run
        over the same kernels and decisions simulates nothing.
        """
        task = self._member_task(task)
        decisions = self.decide_sites(kernel, task=task)
        baseline, _ = self.reward_cache.measure_baseline(self.pipeline, kernel)
        application = task.apply(
            self.pipeline, kernel, decisions, reward_cache=self.reward_cache
        )
        return OptimizationResult(
            kernel_name=kernel.name,
            task=task.name,
            decisions=application.decisions,
            cycles=application.result.cycles,
            baseline_cycles=baseline.cycles,
            compile_seconds=application.result.compile_seconds,
            transformed_source=application.transformed_source,
            description=application.description,
        )

    def optimize_suite(
        self, kernels: Sequence[LoopKernel], task=None
    ) -> List[OptimizationResult]:
        return [self.optimize_kernel(kernel, task=task) for kernel in kernels]

    def compare_agents(
        self, kernels: Sequence[LoopKernel], agents=None, seed: int = 0, task=None
    ):
        """Compare this framework's agent against the reference agents.

        Runs :func:`compare_agents` under one of this framework's tasks
        (``task=None`` selects the primary one), with this framework's
        pipeline, reward cache, evaluation service and embedding model; the
        trained agent — pinned to that task's head bank when it is a
        jointly-trained policy — joins the default baseline/random/
        brute-force trio under its own name (``"rl"`` for a trained
        policy) unless an explicit ``agents`` mapping replaces the line-up.
        """
        from repro.evaluation.comparison import ComparisonRunner

        task, service = self._member_task(task), self.evaluation_service
        runner = ComparisonRunner(
            task=task, evaluation_service=service, embedding_model=self.embedding_model
        )
        if agents is None:
            agent = self._agent_for_task(task)
            agents = runner.default_agents(seed=seed)
            agents[agent.name] = agent
        return runner.run(agents, kernels)

    @staticmethod
    def _repin_agents(agents, task):
        """Re-pin an explicit agents mapping to one task (``for_task``)."""
        if agents is None:
            return None
        return {name: agent.for_task(task) for name, agent in agents.items()}

    def _resolve_kernel_split(self, kernel_split, kernels, seed: int):
        """Coerce a ``kernel_split`` argument to a :class:`KernelSplit`."""
        from repro.evaluation.splits import KernelSplit, split_kernels

        if kernel_split is True:
            if self.kernel_split is None:
                raise ValueError(
                    "compare_all_tasks(kernel_split=True) replays the "
                    "training run's split, but this framework was trained "
                    "without TrainingConfig(holdout_kernels=...) and "
                    "recorded none; pass a fraction or a KernelSplit"
                )
            return self.kernel_split
        if isinstance(kernel_split, KernelSplit):
            return kernel_split
        if isinstance(kernel_split, (int, float)) and not isinstance(
            kernel_split, bool
        ):
            return split_kernels(
                kernels, test_fraction=float(kernel_split), seed=seed
            )
        raise ValueError(
            "kernel_split must be True (replay the training split), a "
            f"test fraction, or a KernelSplit; got {kernel_split!r}"
        )

    def compare_all_tasks(
        self,
        kernels: Sequence[LoopKernel],
        agents=None,
        seed: int = 0,
        kernel_split=None,
    ):
        """One :meth:`compare_agents` table per trained task.

        The joint-training acceptance view: a single shared-trunk policy
        evaluated separately on every task it was trained on.  Agents in
        an explicit ``agents`` mapping that can re-pin themselves
        (``for_task``) are re-pinned per table, so one task-pinned
        ``PolicyAgent`` serves every task's line-up.  Returns an ordered
        ``task name -> TaskComparison`` mapping.

        ``kernel_split`` turns the run into a held-out-kernel
        generalization matrix instead: ``True`` replays the training run's
        recorded split (``TrainingConfig(holdout_kernels=...)``), a float
        computes a fresh seed-stable split of ``kernels``, and an explicit
        :class:`repro.evaluation.splits.KernelSplit` is used as-is.  Each
        task is compared twice — on the training-side kernels and on the
        held-out ones — and the result is a
        :class:`repro.evaluation.comparison.GeneralizationMatrix`.  A
        split whose test side overlaps the kernels this framework trained
        on is rejected: that table would present memorization as
        transfer.
        """
        from collections import OrderedDict

        if kernel_split is None:
            results = OrderedDict()
            for task in self.tasks:
                results[task.name] = self.compare_agents(
                    kernels,
                    agents=self._repin_agents(agents, task),
                    seed=seed,
                    task=task,
                )
            return results

        from repro.evaluation.comparison import (
            GeneralizationMatrix,
            SplitComparison,
        )

        split = self._resolve_kernel_split(kernel_split, kernels, seed)
        if self.training_kernel_names is not None:
            split.assert_no_leakage(self.training_kernel_names)
        train_kernels, test_kernels = split.partition(kernels)
        entries = OrderedDict()
        for task in self.tasks:
            task_agents = self._repin_agents(agents, task)
            entries[task.name] = SplitComparison(
                task=task.name,
                split=split,
                train=self.compare_agents(
                    train_kernels, agents=task_agents, seed=seed, task=task
                ),
                test=self.compare_agents(
                    test_kernels, agents=task_agents, seed=seed, task=task
                ),
            )
        return GeneralizationMatrix(split=split, tasks=entries)

    def fine_tune(
        self,
        kernels: Sequence[LoopKernel],
        task=None,
        total_steps: int = 200,
        batch_size: Optional[int] = None,
        learning_rate: float = 5e-5,
        seed: int = 0,
    ):
        """Transfer the trained policy to a new task, trunk frozen.

        The paper's generalization recipe operationalized: the shared
        trunk (and every already-trained task's embedding row) keeps its
        exact bytes while PPO trains only ``task``'s embedding row and
        head stack on ``kernels``.  ``task`` defaults to the
        ``TrainingConfig(holdout_task=...)`` recorded at training time.
        An unseen task gets its embedding row seeded from the policy's
        trainable new-task prior (``add_task``); afterwards the task
        joins this framework's ``tasks`` so ``optimize_kernel`` /
        ``compare_all_tasks`` cover it.  Returns the fine-tune
        :class:`repro.rl.ppo.TrainingHistory`.

        Requires an embedding-conditioned policy — a head-bank policy has
        no shared decision function to transfer, so train with
        ``TrainingConfig(conditioning="embedding")`` (the joint-run
        default) first.
        """
        from repro.agents.policy_agent import PolicyAgent
        from repro.rl.env import MultiTaskEnv, build_samples
        from repro.rl.policy import ConditionedPolicy
        from repro.rl.ppo import PPOConfig, PPOTrainer

        if task is None:
            if self.holdout_task is None:
                raise ValueError(
                    "fine_tune() needs a task: pass task=<name> or train "
                    "with TrainingConfig(holdout_task=...)"
                )
            task = self.holdout_task
        target = resolve_task(task)
        policy = self.agent.policy if isinstance(self.agent, PolicyAgent) else None
        if not isinstance(policy, ConditionedPolicy):
            raise ValueError(
                "fine_tune() transfers an embedding-conditioned policy "
                "(repro.rl.policy.ConditionedPolicy); this framework's "
                f"agent holds {type(policy).__name__ if policy is not None else 'no policy'} — "
                "train with TrainingConfig(conditioning='embedding')"
            )
        if target.name not in policy.task_names:
            policy.add_task(target.name, target.action_space(policy.policy_kind))
        service = self.evaluation_service
        samples = build_samples(
            kernels, self.embedding_model, service.pipeline, task=target
        )
        env = MultiTaskEnv(
            [target], {target.name: samples}, seed=seed, evaluation_service=service
        )
        trainer = PPOTrainer(
            env,
            policy,
            PPOConfig(
                learning_rate=learning_rate,
                train_batch_size=batch_size or min(total_steps, 200),
            ),
            trainable_parameters=policy.transfer_parameters(target.name),
        )
        history = trainer.train(total_steps, batch_size=batch_size)
        if target.name not in {member.name for member in self.tasks}:
            self.tasks = list(self.tasks) + [target]
        return history

    def optimize_source(
        self, source: str, function_name: Optional[str] = None, name: str = "user_kernel", task=None
    ) -> OptimizationResult:
        """:meth:`optimize_kernel` on raw C source text.

        ``function_name`` defaults to the function holding the first loop.
        """
        if function_name is None:
            loops = extract_loops(source)
            if not loops:
                raise ValueError("no loops found in the given source")
            function_name = loops[0].function_name
        kernel = LoopKernel(
            name=name, source=source, function_name=function_name, suite="user"
        )
        return self.optimize_kernel(kernel, task=task)

    # -- constructors ---------------------------------------------------------------------

    @classmethod
    def default(cls, machine: Optional[MachineDescription] = None) -> "NeuroVectorizer":
        """A ready-to-use framework that defers to the compiler's cost model.

        Useful for exploring the pipeline without training; swap in a trained
        agent (or call :meth:`train`) for the paper's results.
        """
        from repro.agents.baseline import BaselineAgent
        from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset

        machine = machine or MachineDescription()
        pipeline = CompileAndMeasure(machine=machine)
        corpus = generate_synthetic_dataset(SyntheticDatasetConfig(count=50, seed=0))
        embedding_model = build_embedding_model(list(corpus))
        return cls(
            embedding_model,
            BaselineAgent(pipeline),
            evaluation_service=EvaluationService(pipeline),
        )

    @classmethod
    def train(
        cls,
        train_kernels: Sequence[LoopKernel],
        config: Optional[TrainingConfig] = None,
        machine: Optional[MachineDescription] = None,
    ) -> Tuple["NeuroVectorizer", TrainingArtifacts]:
        """Train the full stack: embedding pretraining, then PPO.

        ``config.task`` selects the optimization task being learned — or
        ``config.tasks`` a *list* of tasks to train jointly: one shared-
        trunk :class:`repro.rl.policy.MultiTaskPolicy` whose task-
        conditioned head banks learn every listed task at once from an
        interleaved :class:`repro.rl.env.MultiTaskEnv`, rewards sharded
        per task through the run's cache/store/service.  Single-task
        training is the one-task special case of the same loop.  Returns
        the framework (with a :class:`PolicyAgent`) and the training
        artifacts (loss/reward curves — per task for joint runs —
        pretraining metrics, the environment samples) so callers can plot
        Figure-5-style curves.
        """
        from collections import OrderedDict as _OrderedDict

        from repro.agents.policy_agent import PolicyAgent
        from repro.embedding.pretrain import Code2VecPretrainer, loop_property_labels
        from repro.rl.env import MultiTaskEnv, build_samples
        from repro.rl.policy import make_policy
        from repro.rl.ppo import PPOConfig, PPOTrainer

        config = config or TrainingConfig()
        tasks = list(config.resolved_tasks())

        # Transfer protocol, part 1: a held-out *task* is excluded from
        # joint training entirely; fine_tune() later grows the policy a
        # fresh embedding row + head for it with the trunk frozen.
        holdout_task_name: Optional[str] = None
        if config.holdout_task is not None:
            holdout_task_name = resolve_task(config.holdout_task).name
            remaining = [
                member for member in tasks if member.name != holdout_task_name
            ]
            if len(remaining) == len(tasks):
                raise ValueError(
                    f"holdout_task {holdout_task_name!r} is not among the "
                    f"configured tasks {[member.name for member in tasks]}"
                )
            if not remaining:
                raise ValueError(
                    f"holdout_task {holdout_task_name!r} would leave no "
                    "tasks to train on; configure at least two tasks"
                )
            tasks = remaining

        # Transfer protocol, part 2: held-out *kernels* never reach the
        # embedding build, pretraining, or PPO sampling; compare_all_tasks
        # (kernel_split=True) replays the recorded split as the
        # generalization matrix's train/test rows.
        kernel_split = None
        training_kernels = list(train_kernels)
        if config.holdout_kernels is not None:
            from repro.evaluation.splits import KernelSplit, split_kernels

            holdout = config.holdout_kernels
            if isinstance(holdout, KernelSplit):
                kernel_split = holdout
            elif isinstance(holdout, (int, float)) and not isinstance(
                holdout, bool
            ):
                kernel_split = split_kernels(
                    training_kernels,
                    test_fraction=float(holdout),
                    seed=config.seed,
                )
            else:
                kernel_split = KernelSplit.from_holdout(
                    training_kernels, holdout, seed=config.seed
                )
            training_kernels, _ = kernel_split.partition(training_kernels)

        task = tasks[0]
        machine = machine or MachineDescription()
        pipeline = CompileAndMeasure(machine=machine)

        # Evaluation service: persistent store and/or worker pool per config.
        if config.cache_dir:
            from repro.distributed.store import PersistentRewardStore

            reward_cache = RewardCache(PersistentRewardStore(config.cache_dir))
        else:
            reward_cache = RewardCache()
        if config.fleet_workers:
            from repro.fleet import FleetEvaluationService

            # Shard reward evaluation across remote fleet workers; when
            # none of the addresses answer the service degrades to a local
            # pool of ``config.workers`` processes.
            evaluation_service = FleetEvaluationService.connect(
                pipeline,
                reward_cache,
                addresses=list(config.fleet_workers),
                fallback_workers=config.workers,
                prefetch_top_k=config.fleet_prefetch_top_k,
            )
        else:
            evaluation_service = EvaluationService(
                pipeline, reward_cache, workers=config.workers
            )
        # From here on the service/store own live resources (worker
        # processes, an open segment file); if any training stage raises
        # before the framework that owns close() exists, release them.
        try:
            embedding_model = build_embedding_model(
                training_kernels, config.embedding
            )

            # --- stage 1: self-supervised pretraining of the embedding -----------
            # Task-agnostic: the embedding predicts loop properties, which
            # is useful context whatever is decided per site.
            bags: List[Tuple[PathContext, ...]] = []
            labels = []
            for kernel in training_kernels[: config.pretrain_samples]:
                try:
                    loops = extract_loops(
                        kernel.source, function_name=kernel.function_name
                    )
                    ir_loops = pipeline.lower_kernel(kernel).innermost_loops()
                except Exception:
                    continue
                for loop in loops:
                    if loop.loop_index >= len(ir_loops):
                        continue
                    bags.append(loop.path_contexts)
                    analysis = pipeline.loop_analyses(kernel)[
                        ir_loops[loop.loop_index].loop_id
                    ]
                    labels.append(loop_property_labels(analysis))
            pretrainer = Code2VecPretrainer(embedding_model, seed=config.seed)
            pretrain_result = None
            if bags and config.pretrain_epochs > 0:
                pretrain_result = pretrainer.train(
                    bags, labels, epochs=config.pretrain_epochs
                )

            # --- stage 2: PPO over the frozen embedding ---------------------------
            # The joint loop: one environment interleaving every task's
            # decision sites, one policy with a head bank per task.  A
            # single task is the one-task/one-bank special case, identical
            # to pre-joint single-task training.
            samples_by_task: Dict[str, List[object]] = _OrderedDict()
            for member in tasks:
                samples_by_task[member.name] = build_samples(
                    training_kernels, embedding_model, pipeline, task=member
                )
            env = MultiTaskEnv(
                tasks,
                samples_by_task,
                seed=config.seed,
                evaluation_service=evaluation_service,
            )
            policy = make_policy(
                config.policy,
                env.observation_dim,
                hidden_sizes=config.hidden_sizes,
                seed=config.seed,
                spaces=_OrderedDict(
                    (member.name, member.action_space(config.policy))
                    for member in tasks
                ),
                conditioning=config.conditioning,
            )
            ppo_config = PPOConfig(
                learning_rate=config.learning_rate,
                train_batch_size=config.rl_batch_size,
                per_task_advantage_norm=config.per_task_advantage_norm,
            )
            trainer = PPOTrainer(env, policy, ppo_config)
            history = trainer.train(
                config.rl_total_steps, batch_size=config.rl_batch_size
            )
        except BaseException:
            evaluation_service.close()
            reward_cache.close()
            raise

        framework = cls(
            embedding_model,
            # Pinned to the primary task; per-task surfaces re-pin it via
            # _agent_for_task / PolicyAgent.for_task.
            PolicyAgent(policy, task=task),
            evaluation_service=evaluation_service,
            task=task,
            tasks=tasks,
            kernel_split=kernel_split,
            training_kernel_names=[kernel.name for kernel in training_kernels],
            holdout_task=holdout_task_name,
        )
        artifacts = TrainingArtifacts(
            history=history,
            pretrain_result=pretrain_result,
            samples=samples_by_task[task.name],
            samples_by_task=dict(samples_by_task),
        )
        return framework, artifacts
