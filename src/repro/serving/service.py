"""The compile service: a batched policy-serving front door.

:class:`CompileService` turns a trained policy into a request-scale
optimization server.  Requests are admitted into an
:class:`~repro.serving.queue.AdmissionQueue`; a single tick worker collects
them into micro-batches (max-batch-size / max-wait-µs coalescing window),
deduplicates identical in-flight kernels by content hash (followers share
the leader's computation), runs **one** shared-trunk
:meth:`~repro.rl.policy.MultiTaskPolicy.act_batch` forward over every
decision site of every unique kernel in the tick — mixed tasks included —
and answers each request through a three-tier path:

* ``store`` — every measurement came from the warm reward cache (e.g. one
  preloaded from a :class:`repro.distributed.store.PersistentRewardStore`):
  **zero** simulator calls.
* ``frontend`` — the service's observation memo hit, skipping parse → AST →
  embedding entirely; only the measurement simulated.
* ``cold`` — full pipeline: parse, embed, decide, transform, simulate.

Shutdown is graceful by default: :meth:`CompileService.stop` closes
admission and drains every queued request before the worker exits.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.reward_cache import RewardCache
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed.service import EvaluationService
from repro.serving.queue import AdmissionQueue, QueuedRequest, ResponseFuture, fail_pending
from repro.serving.schema import (
    TIER_COLD,
    TIER_FRONTEND,
    TIER_STORE,
    CompileRequest,
    CompileResponse,
    ServingError,
)
from repro.serving.stats import ServingReport, ServingStats
from repro.tasks import OptimizationTask, resolve_tasks


class CompileService:
    """Serve optimization decisions for kernel sources from a trained policy.

    ``tasks`` lists the optimization tasks this service answers for (any
    registered task name or instance); the policy must decide each one —
    a head bank of a :class:`repro.rl.policy.MultiTaskPolicy` or a task
    embedding of a :class:`repro.rl.policy.ConditionedPolicy` — with an
    action space matching the task's menus, validated at construction,
    not on the first mismatched request.  When omitted, the policy's own
    trained tasks decide the line-up.

    Every measurement goes through ``evaluation_service`` (its pipeline
    and reward cache; a private serial service by default), and a service
    with workers also fans each tick's cold applications out to them.

    ``max_batch_size`` / ``max_wait_us`` tune the coalescing window,
    ``max_queue_depth`` bounds admission (load shedding), ``slo_ms`` sets
    the optional latency objective reported by :meth:`stats_report`.
    """

    def __init__(
        self,
        policy,
        embedding_model,
        tasks: Optional[Sequence] = None,
        *,
        evaluation_service: Optional[EvaluationService] = None,
        max_batch_size: int = 16,
        max_wait_us: int = 2000,
        max_queue_depth: Optional[int] = None,
        observation_memo_size: int = 512,
        slo_ms: Optional[float] = None,
    ):
        if embedding_model is None:
            raise ValueError("the compile service needs an embedding model")
        self._policy = policy
        self._embedding_model = embedding_model
        resolved = resolve_tasks(policy.task_names if tasks is None else tasks)
        self._tasks: "OrderedDict[str, OptimizationTask]" = OrderedDict(
            (task.name, task) for task in resolved
        )
        # Fail now, not mid-traffic: every served task needs a policy head
        # bank whose action space decodes into exactly the task's menus.
        self._spaces = {}
        for task in resolved:
            space = policy.space_for(task.name)
            if tuple(space.menus) != tuple(task.menus):
                raise ValueError(
                    f"policy head for task {task.name!r} decodes menus "
                    f"{space.menus!r} but the task defines {task.menus!r}"
                )
            self._spaces[task.name] = space
        self.evaluation_service = evaluation_service or EvaluationService(CompileAndMeasure())
        self._pipeline = self.evaluation_service.pipeline
        self._reward_cache = self.evaluation_service.cache
        self._queue: AdmissionQueue = AdmissionQueue(
            max_batch_size=max_batch_size,
            max_wait_us=max_wait_us,
            max_queue_depth=max_queue_depth,
        )
        self._stats = ServingStats(slo_ms=slo_ms)
        # request fingerprint -> (kernel, [(site_index, observation), ...]):
        # a hit skips parse/AST/embedding entirely (the ``frontend`` tier).
        self._observation_memo: "OrderedDict[str, tuple]" = OrderedDict()
        self._observation_memo_size = int(observation_memo_size)
        self._thread: Optional[threading.Thread] = None

    # -- wiring ---------------------------------------------------------------

    @classmethod
    def from_framework(cls, framework, **knobs) -> "CompileService":
        """Adopt a (trained) :class:`repro.core.framework.NeuroVectorizer`.

        The service serves every task the framework was trained for and
        shares its evaluation service (so a store-backed reward cache warms
        the ``store`` tier) and embedding model.
        """
        from repro.agents.policy_agent import PolicyAgent  # keeps agents off the import path

        if not isinstance(framework.agent, PolicyAgent):
            raise ValueError(
                "the framework's agent has no policy to serve; train one "
                "(NeuroVectorizer.train) or wire a PolicyAgent"
            )
        knobs.setdefault("tasks", list(framework.tasks))
        return cls(
            framework.agent.policy,
            framework.embedding_model,
            evaluation_service=framework.evaluation_service,
            **knobs,
        )

    @property
    def served_tasks(self) -> List[str]:
        """Names of the tasks this service routes requests to."""
        return list(self._tasks)

    @property
    def reward_cache(self) -> RewardCache:
        return self._reward_cache

    @property
    def stats(self) -> ServingStats:
        return self._stats

    def report(self) -> ServingReport:
        return self._stats.report()

    def stats_report(self, title: str = "compile service"):
        """The p50/p95/p99 latency / throughput / tier-rate text table."""
        from repro.evaluation.report import format_serving_stats_table

        return format_serving_stats_table(self._stats.report(), title=title)

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "CompileService":
        """Start the tick worker (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name="compile-service", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down: close admission, then drain or fail queued requests.

        With ``drain=True`` (the default) every already-admitted request is
        still answered before the worker exits; with ``drain=False`` queued
        requests fail fast with :class:`ServingError` and only the batch
        already in flight completes.
        """
        self._queue.close()
        if not drain:
            fail_pending(
                self._queue.pop_all(), "compile service stopped without draining"
            )
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # Late stragglers admitted between close() racing submit() cannot
        # exist (submit raises after close), but a non-draining stop may
        # leave items the worker popped nothing from.
        fail_pending(self._queue.pop_all(), "compile service stopped")

    def __enter__(self) -> "CompileService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop(drain=True)

    # -- request admission ----------------------------------------------------

    def submit(self, request: CompileRequest) -> ResponseFuture:
        """Admit one request; returns a future resolving to its response.

        Raises :class:`ServiceClosed` after shutdown and
        :class:`AdmissionRejected` when the queue is at capacity.
        Submitting before :meth:`start` is allowed — requests wait in the
        admission queue until the worker runs.
        """
        now = time.monotonic()
        item = QueuedRequest(request=request, future=ResponseFuture(), enqueued_at=now)
        self._queue.submit(item)
        self._stats.mark_arrival(now)
        return item.future

    def optimize(
        self, request: CompileRequest, timeout: Optional[float] = None
    ) -> CompileResponse:
        """Blocking single-request convenience over :meth:`submit`."""
        return self.submit(request).result(timeout)

    # -- the tick worker ------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._queue.next_batch()
            if not batch:
                return
            self._process_batch(batch)

    def _memo_get(self, fingerprint: str):
        entry = self._observation_memo.get(fingerprint)
        if entry is not None:
            self._observation_memo.move_to_end(fingerprint)
        return entry

    def _memo_put(self, fingerprint: str, entry) -> None:
        self._observation_memo[fingerprint] = entry
        self._observation_memo.move_to_end(fingerprint)
        while len(self._observation_memo) > self._observation_memo_size:
            self._observation_memo.popitem(last=False)

    def _prepare_job(self, request: CompileRequest, task: OptimizationTask):
        """Resolve (kernel, per-site observations) for one unique request.

        Returns ``(kernel, sites, memo_hit)`` where ``sites`` is a list of
        ``(site_index, observation)`` pairs.  A memo hit skips the whole
        parse → decision-site → embedding front end.
        """
        fingerprint = request.fingerprint()
        memo = self._memo_get(fingerprint)
        if memo is not None:
            kernel, sites = memo
            return kernel, sites, True
        function_name = request.function_name
        if function_name is None:
            loops = extract_loops(request.source)
            if not loops:
                raise ServingError("no loops found in the submitted source")
            function_name = loops[0].function_name
        kernel = LoopKernel(
            name=request.name,
            source=request.source,
            function_name=function_name,
            suite="serving",
            bindings=dict(request.bindings),
        )
        sites = [
            (site.index, task.observation_features(site, self._embedding_model))
            for site in task.decision_sites(kernel)
        ]
        self._memo_put(fingerprint, (kernel, sites))
        return kernel, sites, False

    def _process_batch(self, batch: List[QueuedRequest]) -> None:
        self._stats.record_tick(len(batch))
        groups: "OrderedDict[str, List[QueuedRequest]]" = OrderedDict()
        for item in batch:
            groups.setdefault(item.request.fingerprint(), []).append(item)

        # Phase 1: front end per unique kernel (memoized), collecting every
        # decision site of the whole tick into one observation matrix.
        jobs = []
        rows: List[np.ndarray] = []
        row_tasks: List[str] = []
        for items in groups.values():
            request = items[0].request
            job = {"items": items}
            jobs.append(job)
            task = self._tasks.get(request.task)
            if task is None:
                job["error"] = ServingError(
                    f"unknown task {request.task!r}; served tasks: "
                    f"{self.served_tasks}"
                )
                continue
            job["task"] = task
            try:
                kernel, sites, memo_hit = self._prepare_job(request, task)
            except ServingError as error:
                job["error"] = error
                continue
            except Exception as error:  # frontend/semantic failures
                job["error"] = ServingError(
                    f"failed to analyze kernel {request.name!r}: {error}"
                )
                continue
            job.update(kernel=kernel, sites=sites, memo_hit=memo_hit)
            job["row_slice"] = (len(rows), len(rows) + len(sites))
            for _site_index, observation in sites:
                rows.append(observation)
                row_tasks.append(task.name)

        # Phase 2: ONE shared-trunk forward for every site of every unique
        # kernel in this tick — mixed tasks ride the same trunk matmul.
        outputs: List = []
        if rows:
            try:
                outputs = self._policy.act_batch(
                    np.stack(rows), deterministic=True, tasks=row_tasks
                )
            except Exception as error:
                for job in jobs:
                    job.setdefault(
                        "error", ServingError(f"policy forward failed: {error}")
                    )
                outputs = []

        # Phase 3a: decode every unique kernel's decisions from the shared
        # forward's outputs.
        batch_size = len(batch)
        live_jobs = []
        for job in jobs:
            if "error" in job:
                self._respond_error(job["items"], batch_size, job["error"])
                continue
            task: OptimizationTask = job["task"]
            space = self._spaces[task.name]
            start, end = job["row_slice"]
            decisions: Dict[int, Tuple[int, ...]] = {}
            for (site_index, _), output in zip(job["sites"], outputs[start:end]):
                decisions[site_index] = task.cache_key(space.decode(output.action))
            job["decisions"] = decisions
            live_jobs.append(job)

        # Phase 3b: fan the tick's *cold* applications across the attached
        # evaluation service (process pool or fleet) so one slow simulation
        # no longer serializes the whole tick — the serial measure pass
        # below then answers fanned jobs from the freshly-merged cache.
        # Jobs whose application measurement is already cached are skipped
        # (they are the warm ``store`` tier; dispatching them would both
        # waste a worker and mislabel the tier).
        self._fan_out_measurements(live_jobs)

        # Phase 3c: measure per unique kernel, then fan each result out to
        # the leader and its coalesced followers.
        for job in live_jobs:
            task = job["task"]
            decisions = job["decisions"]
            try:
                # The misses delta over the measurement phase is the exact
                # simulation count (the tick worker is the only thread
                # touching this cache while serving): zero misses == the
                # warm-store tier.
                misses_before = self._reward_cache.stats.misses
                baseline, _ = self._reward_cache.measure_baseline(
                    self._pipeline, job["kernel"]
                )
                application = task.apply(
                    self._pipeline,
                    job["kernel"],
                    decisions,
                    reward_cache=self._reward_cache,
                )
                simulated = self._reward_cache.stats.misses - misses_before
            except Exception as error:
                self._respond_error(
                    job["items"],
                    batch_size,
                    ServingError(f"measurement failed: {error}"),
                )
                continue
            if simulated == 0 and not job.get("fanned"):
                # Zero local misses AND no remote simulation this tick:
                # the genuinely warm store tier.  A fanned job also shows
                # zero local misses, but its simulations merely ran
                # elsewhere — report it by its front-end path instead.
                tier = TIER_STORE
            elif job["memo_hit"]:
                tier = TIER_FRONTEND
            else:
                tier = TIER_COLD
            self._respond(
                job["items"],
                batch_size,
                task=task.name,
                decisions=decisions,
                cycles=float(application.result.cycles),
                baseline_cycles=float(baseline.cycles),
                tier=tier,
            )

    def _fan_out_measurements(self, jobs) -> None:
        """Run the tick's cold whole-kernel applications through the
        evaluation service's workers, grouped per task.

        Each dispatched job's ``fanned`` flag records that its simulation
        happened remotely (the tier report uses it).  Fan-out failures are
        non-fatal: the serial measure pass re-runs anything unfinished.
        """
        service = self.evaluation_service
        if service.workers == 0:
            return
        by_task: "OrderedDict[str, List[dict]]" = OrderedDict()
        for job in jobs:
            key = job["task"].application_key(
                self._reward_cache, self._pipeline, job["kernel"], job["decisions"]
            )
            if self._reward_cache.peek(key) is not None:
                continue
            by_task.setdefault(job["task"].name, []).append(job)
        for name, group in by_task.items():
            try:
                flags = service.measure_applications(
                    self._tasks[name],
                    [(job["kernel"], job["decisions"]) for job in group],
                    detail=True,
                )
            except RuntimeError:
                continue
            for job, fanned in zip(group, flags):
                job["fanned"] = bool(fanned)

    # -- response fan-out -----------------------------------------------------

    def _respond(
        self,
        items: List[QueuedRequest],
        batch_size: int,
        task: str,
        decisions: Dict[int, Tuple[int, ...]],
        cycles: float,
        baseline_cycles: float,
        tier: str,
    ) -> None:
        now = time.monotonic()
        for position, item in enumerate(items):
            latency_ms = (now - item.enqueued_at) * 1000.0
            coalesced = position > 0
            response = CompileResponse(
                request_id=item.request.request_id,
                kernel_name=item.request.name,
                task=task,
                decisions=dict(decisions),
                cycles=cycles,
                baseline_cycles=baseline_cycles,
                tier=tier,
                coalesced=coalesced,
                latency_ms=latency_ms,
                batch_size=batch_size,
            )
            self._stats.record_response(
                tier, latency_ms, now, coalesced=coalesced, error=False
            )
            item.future.resolve(response)

    def _respond_error(
        self, items: List[QueuedRequest], batch_size: int, error: Exception
    ) -> None:
        now = time.monotonic()
        for position, item in enumerate(items):
            latency_ms = (now - item.enqueued_at) * 1000.0
            coalesced = position > 0
            response = CompileResponse(
                request_id=item.request.request_id,
                kernel_name=item.request.name,
                task=item.request.task,
                tier=TIER_COLD,
                coalesced=coalesced,
                latency_ms=latency_ms,
                batch_size=batch_size,
                error=str(error),
            )
            self._stats.record_response(
                TIER_COLD, latency_ms, now, coalesced=coalesced, error=True
            )
            item.future.resolve(response)
