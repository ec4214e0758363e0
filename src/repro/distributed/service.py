"""One future-based reward-evaluation service over pluggable transports.

:class:`EvaluationService` is the one reward-evaluation handle every
consumer (environment, agents, the PPO trainer, comparisons, action
sweeps, the compile service, the framework) holds: it carries the run's
``pipeline`` and ``cache``, so consumers take nothing beside it.  It is
the only implementation of
``evaluate / submit / prefetch / settle / measure_applications``:

* ``workers == 0`` — the serial in-process path: requests go through a
  plain :class:`~repro.cache.reward_cache.EvaluationBatcher`,
  byte-identical to the PR-1 path.
* ``workers >= 1`` — unique cache misses are dispatched through a backend
  (:mod:`repro.distributed.backends`: a local process pool, or the fleet's
  TCP coordinator), **sharded by kernel content hash** so each kernel's
  simulator/IR memos live on exactly one worker and stay hot.

``submit`` returns an :class:`EvaluationFuture` immediately; results are
collected lazily, which is what lets a training loop overlap simulation
with policy inference (see :mod:`repro.distributed.async_api`).  Requests
are deduplicated against the cache, against each other, *and against
queries still in flight from earlier futures* — a key is never evaluated
twice no matter how batches interleave.

Everything past the transport is here once: a backend that reports a
worker ``lost`` has that worker's orphans retried on the survivors with
exponential backoff (or evaluated inline when nobody survives), so results
stay byte-identical to serial under failures; a backend that never loses
workers simply never triggers it.  Speculative :meth:`prefetch` rides the
same machinery — likely-next keys go out at low priority with no waiters,
and demand arriving later either finds the answer cached (a prefetch
**hit**), joins the in-flight request (**joined**), or never comes
(**wasted**).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cache.reward_cache import (
    WHOLE_FUNCTION_APPLICATION,
    BatchOutcome,
    RewardCache,
    RewardKey,
    evaluate_requests,
    normalize_requests,
)
from repro.distributed.backends import EvaluationBackend, ProcessPoolBackend
from repro.distributed.worker import PRIORITY_DEMAND, PRIORITY_PREFETCH, run_job

if TYPE_CHECKING:
    from repro.core.pipeline import CompileAndMeasure
    from repro.datasets.kernels import LoopKernel
    from repro.tasks.base import OptimizationTask

#: One reward query: a (kernel, site index, action tuple) triple.
EvaluationRequest = Tuple


@dataclass
class ServiceStats:
    """Dispatch, robustness, and prefetch counters of one
    :class:`EvaluationService`, whatever its backend.

    ``remote`` is set by a fleet-backed service; reports use it to add the
    robustness/prefetch rows.  The per-worker maps are keyed by worker
    name (a pool process's name, a fleet worker's announced name).

    Prefetch accounting distinguishes three fates for a speculative request:

    * **hit** — a later demand request found the answer already in the cache;
    * **joined** — demand arrived while the speculation was still in flight
      and attached to it instead of dispatching its own work;
    * **wasted** — the speculation completed (or was dropped on worker loss)
      without any demand ever wanting it.
    """

    remote: bool = False
    dispatched: int = 0
    completed: int = 0
    errors: int = 0
    serial_batches: int = 0
    serial_requests: int = 0
    per_worker_dispatched: Dict[str, int] = field(default_factory=dict)
    per_worker_completed: Dict[str, int] = field(default_factory=dict)
    demand_dispatched: int = 0
    retries: int = 0
    reshards: int = 0
    workers_lost: int = 0
    inline_evaluations: int = 0
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    prefetch_joined: int = 0

    @property
    def prefetch_wasted(self) -> int:
        return max(0, self.prefetch_issued - self.prefetch_hits - self.prefetch_joined)

    @property
    def waits_converted(self) -> float:
        """Fraction of would-be async waits answered by speculation.

        Of every demand lookup that was not already a plain cache hit, how
        many were covered by prefetch (resolved from the store, or joined
        to an in-flight speculative evaluation) instead of paying a fresh
        dispatch-and-wait?
        """
        covered = self.prefetch_hits + self.prefetch_joined
        total = covered + self.demand_dispatched
        if total == 0:
            return 0.0
        return covered / total

    def record_dispatch(self, worker: str, prefetch: bool = False) -> None:
        self.dispatched += 1
        if not prefetch:
            self.demand_dispatched += 1
        self.per_worker_dispatched[worker] = (
            self.per_worker_dispatched.get(worker, 0) + 1
        )

    def record_completion(self, worker: str) -> None:
        self.completed += 1
        self.per_worker_completed[worker] = (
            self.per_worker_completed.get(worker, 0) + 1
        )

    def as_dict(self) -> dict:
        """Every counter, both per-worker maps, and the derived rates."""
        return {
            **asdict(self),
            "prefetch_wasted": self.prefetch_wasted,
            "waits_converted": self.waits_converted,
        }


class EvaluationFuture:
    """Outcomes of one submitted batch, filled as workers answer.

    ``result()`` blocks (draining the service's backend) until every
    slot is filled, then returns :class:`BatchOutcome` objects in request
    order — the same contract as ``EvaluationBatcher.flush``.
    """

    def __init__(self, service: "EvaluationService", size: int):
        self._service = service
        self._outcomes: List[Optional[BatchOutcome]] = [None] * size
        self._remaining = size
        self._errors: List[str] = []

    def __len__(self) -> int:
        return len(self._outcomes)

    def done(self) -> bool:
        return self._remaining == 0

    def result(self) -> List[BatchOutcome]:
        while not self.done():
            self._service._drain_one()
        if self._errors:
            raise RuntimeError(
                f"{len(self._errors)} evaluation request(s) failed in workers; "
                f"first failure:\n{self._errors[0]}"
            )
        return list(self._outcomes)  # type: ignore[arg-type]

    # -- service-side plumbing --------------------------------------------

    def _fill(self, slot: int, outcome: BatchOutcome) -> None:
        if self._outcomes[slot] is None:
            self._remaining -= 1
        self._outcomes[slot] = outcome

    def _fail(self, slot: int, message: str) -> None:
        self._remaining -= 1
        self._errors.append(message)


@dataclass(eq=False)
class _Job:
    """One in-flight request: everything needed to ship, re-shard, or run
    it inline.  ``waiters`` are the future slots a site job's answer fills
    (empty for un-joined speculation and for apply jobs)."""

    key: RewardKey
    kernel: "LoopKernel"
    site_index: int
    action: Tuple[int, ...]
    task: "OptimizationTask"
    kind: str = "site"
    decisions: Optional[Dict[int, Tuple[int, ...]]] = None
    priority: int = PRIORITY_DEMAND
    prefetch: bool = False
    worker: Optional[str] = None
    attempts: int = 1
    waiters: List[Tuple[EvaluationFuture, int]] = field(default_factory=list)


class EvaluationService:
    """Batched reward evaluation, sharded across a backend's workers.

    The service owns neither the pipeline nor the cache, but it is the one
    place a consumer finds them: every consumer of a run shares one
    service, so workers' results are visible to all of them the moment
    they land.  A closed service refuses new work, with or without workers.
    """

    #: Re-dispatches a lost worker's orphan gets before it fails, and the
    #: base of the exponential backoff between them (seconds).
    max_retries = 3
    retry_backoff = 0.05
    #: Actions speculated per upcoming sample by
    #: :class:`repro.fleet.prefetch.SpeculativePrefetcher` (0 = never
    #: speculate) and how many upcoming samples it looks at.
    prefetch_top_k = 0
    prefetch_horizon: Optional[int] = None

    def __init__(
        self,
        pipeline: "CompileAndMeasure",
        cache: Optional[RewardCache] = None,
        workers: int = 0,
        result_timeout: float = 120.0,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.pipeline = pipeline
        self.cache = RewardCache() if cache is None else cache
        self.result_timeout = result_timeout
        self.stats = ServiceStats()
        self._closed = False
        self._next_request_id = 0
        self._pending: Dict[int, _Job] = {}
        # Site jobs in flight by key: what in-batch/in-flight duplicates
        # and demand catching up with speculation attach to.
        self._inflight: Dict[RewardKey, _Job] = {}
        # Speculation that landed before any demand wanted it.
        self._prefetched_keys: set = set()
        # Whole-kernel applications already fanned out this service
        # lifetime (so repeat comparisons don't re-dispatch), and the
        # failures of the measure_applications call in progress.
        self._applied: set = set()
        self._apply_errors: List[Tuple[RewardKey, str]] = []
        self._backend: Optional[EvaluationBackend] = None
        self._start_pool(workers)

    def _start_pool(self, workers: int) -> None:
        if workers > 0:
            self._backend = ProcessPoolBackend(
                self.pipeline.machine, self.pipeline.default_symbol_value, workers
            )

    # -- lifecycle ---------------------------------------------------------

    @property
    def workers(self) -> int:
        """Live workers.  Zero means every consumer (async overlap,
        comparison fan-out, prefetch) sees a serial service."""
        return 0 if self._backend is None else self._backend.workers

    def close(self) -> None:
        """Stop all workers and refuse further work.  Safe to call more
        than once.

        Call only after every outstanding future has been resolved; pending
        requests are abandoned, not re-run.
        """
        if self._backend is not None:
            self._backend.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "evaluation service is closed; create a new one to submit"
            )

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; explicit close() is the API
        try:
            self.close()
        except Exception:
            pass

    # -- submission --------------------------------------------------------

    def evaluate(
        self,
        requests: Sequence[EvaluationRequest],
        task: Optional["OptimizationTask"] = None,
    ) -> List[BatchOutcome]:
        """Synchronous evaluation: ``submit(...)`` then wait."""
        return self.submit(requests, task=task).result()

    def _site_queries(self, requests, task: Optional["OptimizationTask"]):
        """Per request, the leading :class:`_Job` fields ``(key, kernel,
        site_index, action, task)`` — a job is only built for a real miss."""
        if task is None:
            from repro.tasks import resolve_task

            task = resolve_task(None)
        for kernel, site_index, action in normalize_requests(requests):
            action = task.cache_key(action)
            key = self.cache.site_key(self.pipeline, task, kernel, site_index, action)
            yield key, kernel, int(site_index), action, task

    def submit(
        self,
        requests: Sequence[EvaluationRequest],
        task: Optional["OptimizationTask"] = None,
    ) -> EvaluationFuture:
        """Enqueue a batch of reward queries and return a future.

        ``task`` is the optimization task the actions belong to
        (vectorization by default).  With workers the call returns
        immediately after dispatching the unique misses; serially
        (``workers == 0``) the batch is evaluated before returning and the
        future is already done.
        """
        self._check_open()
        future = EvaluationFuture(self, len(requests))
        if self.workers == 0:
            self.stats.serial_batches += 1
            self.stats.serial_requests += len(requests)
            outcomes = evaluate_requests(self.pipeline, self.cache, requests, task=task)
            for slot, outcome in enumerate(outcomes):
                future._fill(slot, outcome)
            return future
        for slot, query in enumerate(self._site_queries(requests, task)):
            key = query[0]
            cached = self.cache.get(key)
            if cached is not None:
                if key in self._prefetched_keys:
                    # This demand lookup would have been a dispatch-and-wait
                    # without speculation: a prefetch hit.
                    self._prefetched_keys.discard(key)
                    self.stats.prefetch_hits += 1
                future._fill(slot, BatchOutcome(cached, True))
                continue
            inflight = self._inflight.get(key)
            if inflight is not None:
                # Already in flight (earlier in this batch or a previous
                # still-unresolved future): the get() above counted a miss,
                # correct it to a dedup — exactly the batcher's accounting.
                self.cache.stats.misses -= 1
                self.cache.stats.batch_deduplicated += 1
                if inflight.prefetch:
                    # Demand caught up with in-flight speculation.
                    inflight.prefetch = False
                    self.stats.prefetch_joined += 1
                inflight.waiters.append((future, slot))
                continue
            job = self._inflight[key] = _Job(*query, waiters=[(future, slot)])
            if self._dispatch(job) is None:
                # Every worker vanished mid-batch: evaluate inline.
                self._evaluate_inline(job)
        return future

    def prefetch(
        self,
        requests: Sequence[EvaluationRequest],
        task: Optional["OptimizationTask"] = None,
    ) -> int:
        """Speculatively evaluate likely-next requests at low priority.

        Skips anything already cached or in flight, and goes in flight with
        no waiters so later demand joins instead of re-dispatching.
        Returns the number of speculations actually issued (always 0
        without workers).
        """
        if self.workers == 0 or not requests:
            return 0
        issued = 0
        for query in self._site_queries(requests, task):
            key = query[0]
            # peek(): speculation must not skew the demand hit/miss stats.
            if self.cache.peek(key) is not None or key in self._inflight:
                continue
            job = self._inflight[key] = _Job(
                *query, prefetch=True, priority=PRIORITY_PREFETCH
            )
            if self._dispatch(job) is None:
                del self._inflight[key]
                break
            self.stats.prefetch_issued += 1
            issued += 1
        return issued

    def settle(self) -> None:
        """Drain every outstanding result, including pure speculation.

        After this, demand lookups for completed prefetches are plain
        cache hits.  Demand futures normally drain lazily via
        ``result()``; ``settle()`` is for quiesce points (end of a batch,
        before reading stats, shutting down an example) where leftover
        speculative work should land in the cache rather than be lost.
        """
        while self._pending:
            self._drain_one()

    # -- whole-kernel application fan-out -----------------------------------

    def measure_applications(self, task: "OptimizationTask", jobs, detail: bool = False):
        """Fan whole-kernel task applications out across the worker shards.

        ``jobs`` is a sequence of ``(kernel, decisions)`` pairs.  Each
        unique job (canonicalized by the application's flattened-decision
        cache key) runs ``measure_baseline`` + ``task.apply`` inside the
        worker owning the kernel's shard, against a fresh worker-local
        cache; every measurement entry the application produced is shipped
        back and merged into the shared cache.  A serial pass re-running
        the same applications afterwards is then pure lookups — which is
        how :meth:`repro.evaluation.comparison.ComparisonRunner.run`
        parallelizes per kernel while staying byte-identical to serial.

        Returns the number of jobs dispatched (0 when the service is
        serial, or every job was already fanned out by an earlier call) —
        or, with ``detail=True``, a per-job list of booleans (``True``
        when that job was dispatched to a worker) so callers can tell
        which jobs actually cost a simulation this call.
        Raises if any worker failed; failed jobs become retryable again.
        """
        self._check_open()
        if self.workers == 0 or not jobs:
            return [False] * len(jobs or []) if detail else 0
        flags: List[bool] = []
        outstanding: set = set()
        for kernel, decisions in jobs:
            key = self.cache.application_key(self.pipeline, task, kernel, decisions)
            if key in self._applied:
                flags.append(False)
                continue
            self._applied.add(key)
            job = _Job(
                key,
                kernel,
                WHOLE_FUNCTION_APPLICATION,
                key.action,
                task,
                kind="apply",
                decisions={
                    int(site): tuple(int(v) for v in action)
                    for site, action in decisions.items()
                },
            )
            request_id = self._dispatch(job)
            flags.append(request_id is not None)
            if request_id is None:
                self._evaluate_inline(job)
            else:
                outstanding.add(request_id)
        while any(request_id in self._pending for request_id in outstanding):
            self._drain_one()
        if self._apply_errors:
            errors, self._apply_errors = self._apply_errors, []
            for key, _message in errors:
                self._applied.discard(key)
            raise RuntimeError(
                f"{len(errors)} application job(s) failed in workers; "
                f"first failure:\n{errors[0][1]}"
            )
        return flags if detail else sum(flags)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, job: _Job) -> Optional[int]:
        """Ship ``job`` to its shard and track it under a fresh request id;
        ``None`` (nothing tracked) only when zero live workers remain."""
        request_id = self._next_request_id
        job.worker = self._backend.send(request_id, job)
        if job.worker is None:
            return None
        self._next_request_id += 1
        self._pending[request_id] = job
        self.stats.record_dispatch(job.worker, prefetch=job.prefetch)
        return request_id

    # -- result collection -------------------------------------------------

    def _drain_one(self) -> None:
        # ``result_timeout`` is a liveness-check interval, not a deadline: a
        # slow simulation on a healthy worker just waits another round; the
        # backend turns an actually-dead worker into an error or a "lost".
        event = None
        while event is None:
            event = self._backend.poll(self.result_timeout)
            if event is None and not self._pending:
                return
        kind, worker, result = event
        if kind == "lost":
            self._handle_lost(worker)
            return
        job = self._pending.pop(result.request_id, None)
        if job is None:
            # A duplicate answer after a retry raced the original — the
            # values are deterministic, so first-wins is safe.
            return
        self.stats.record_completion(worker)
        self._finish(job, result.value, result.error)

    def _finish(self, job: _Job, value, error: Optional[str] = None) -> None:
        """Land one job's answer (from a worker, the inline fallback, or a
        give-up): merge it into the cache and fill whoever waited."""
        if error is not None:
            self.stats.errors += 1
        if job.kind == "apply":
            if error is not None:
                self._apply_errors.append((job.key, error))
            else:
                self.cache.merge(value)
            return
        del self._inflight[job.key]
        if error is not None:
            for waiting_future, slot in job.waiters:
                waiting_future._fail(slot, error)
            return
        self.cache.put(job.key, value)
        for position, (waiting_future, slot) in enumerate(job.waiters):
            waiting_future._fill(slot, BatchOutcome(value, position > 0))
        if job.prefetch and not job.waiters:
            # Speculation landed before any demand wanted it: later demand
            # finds it in the cache and counts as a prefetch hit.
            self._prefetched_keys.add(job.key)

    def _evaluate_inline(self, job: _Job) -> None:
        """Last-resort local evaluation — the exact worker code path run on
        the service's own pipeline, so results stay byte-identical."""
        self.stats.inline_evaluations += 1
        self._finish(job, run_job(self.pipeline, job.task, job.kernel, job))

    # -- loss recovery ------------------------------------------------------

    def _handle_lost(self, name: str) -> None:
        """Re-shard one dead worker's orphans onto the survivors.

        Demanded work (anything with waiters, plus whole-kernel
        applications) is retried with exponential backoff up to
        ``max_retries`` re-dispatches; pure speculation is simply dropped.
        With zero survivors, demanded work runs inline on the service's
        own pipeline — identical code path, identical bytes.
        """
        self.stats.workers_lost += 1
        retryable: List[Tuple[int, _Job]] = []
        for request_id, job in sorted(self._pending.items()):
            if job.worker != name:
                continue
            if job.kind != "apply" and not job.waiters:
                # Un-joined speculation: drop it (implicitly counted wasted).
                del self._pending[request_id]
                del self._inflight[job.key]
                continue
            job.attempts += 1
            if job.attempts > self.max_retries + 1:
                del self._pending[request_id]
                self._finish(
                    job,
                    None,
                    f"worker(s) lost; gave up on {job.kind} request after "
                    f"{self.max_retries} retries (key {job.key})",
                )
                continue
            retryable.append((request_id, job))
        if not retryable:
            return
        if self.workers > 0 and self.retry_backoff > 0:
            # One grouped backoff per loss event, growing with the worst
            # retry count in the group.
            worst = max(job.attempts for _request_id, job in retryable)
            time.sleep(self.retry_backoff * (2 ** (worst - 2)))
        for request_id, job in retryable:
            job.worker = self._backend.send(request_id, job)
            if job.worker is None:
                del self._pending[request_id]
                self._evaluate_inline(job)
                continue
            self.stats.retries += 1
            self.stats.reshards += 1
            self.stats.per_worker_dispatched[job.worker] = (
                self.stats.per_worker_dispatched.get(job.worker, 0) + 1
            )
