"""Worker-process side of the sharded evaluation service.

Each worker hosts its **own** :class:`CompileAndMeasure` pipeline, so the
IR cache, simulator memos and per-statement cost tables it builds for a
kernel stay hot inside that worker.  The service shards requests by kernel
content hash, which keeps all queries for one kernel on one worker and
makes those memos as effective as in the serial path.

Kernels travel as plain ``dict`` payloads (source text + bindings), not as
:class:`LoopKernel` objects: payloads pickle identically under ``fork`` and
``spawn`` start methods and carry none of the kernel's lazily-built AST/IR
caches across the process boundary.  A payload is shipped at most once per
(worker, kernel) — later requests reference the content hash alone.

Requests carry the owning :class:`repro.tasks.OptimizationTask` *name* and
a generic action tuple; workers resolve the task from the registry and run
``task.evaluate`` — the exact code path the serial batcher runs — so a
sharded evaluation is byte-identical to a serial one for every task.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.datasets.kernels import LoopKernel


def kernel_payload(kernel: LoopKernel) -> dict:
    """The process-portable representation of a kernel."""
    return {
        "name": kernel.name,
        "source": kernel.source,
        "function_name": kernel.function_name,
        "suite": kernel.suite,
        "bindings": dict(kernel.bindings),
        "description": kernel.description,
    }


def kernel_from_payload(payload: dict) -> LoopKernel:
    return LoopKernel(
        name=payload["name"],
        source=payload["source"],
        function_name=payload["function_name"],
        suite=payload.get("suite", "synthetic"),
        bindings=dict(payload.get("bindings", {})),
        description=payload.get("description", ""),
    )


#: Demand traffic: a training step or comparison waiting on this answer.
PRIORITY_DEMAND = 0
#: Speculative prefetch: evaluated only while no demand work is queued.
PRIORITY_PREFETCH = 1


@dataclass
class WorkRequest:
    """One reward query dispatched to a worker.

    ``payload`` is ``None`` when this worker has already been sent the
    kernel with ``kernel_hash`` (the worker keeps them by hash).  ``task``
    names the optimization task whose ``evaluate`` interprets ``action``;
    ``task_payload`` carries the pickled task *object* the first time a
    worker sees that name, so tasks registered only in the parent process
    (user-defined, never imported by ``repro.tasks``) still evaluate in
    workers.  Later requests reference the name alone; the in-tree registry
    is the fallback.
    """

    request_id: int
    kernel_hash: str
    payload: Optional[dict]
    site_index: int
    action: Tuple[int, ...]
    task: str
    task_payload: Optional[object] = None
    #: ``"site"`` — evaluate one action at one site (the original reward
    #: query).  ``"apply"`` — run the task's whole-kernel application
    #: (baseline + full decision map) against a fresh worker-local cache
    #: and ship every measurement entry back (the comparison fan-out).
    kind: str = "site"
    #: The full ``{site: action}`` decision map for ``kind == "apply"``.
    decisions: Optional[Dict[int, Tuple[int, ...]]] = None


@dataclass
class WorkResult:
    """A worker's answer; ``error`` carries a formatted traceback on failure.

    ``worker_id`` identifies the answering worker to its backend (a pool
    index, a fleet worker's name).  ``value`` is what :func:`run_job` returned: the site's
    ``CachedMeasurement``, or for ``kind == "apply"`` the
    ``(RewardKey, CachedMeasurement)`` entries the application generated,
    for the parent to merge into the shared cache.
    """

    request_id: int
    worker_id: Union[int, str]
    value: object = None
    error: Optional[str] = None


class ShippedPayloads:
    """What one worker already holds, so content ships once per worker.

    Kernels are tracked by content hash.  Task objects are tracked per
    (task name, instance): workers then hold the exact instance the
    submitting process uses, so tasks registered only there (or configured
    differently from the registry default) still evaluate correctly in the
    shards, and a *different* instance reusing a name is re-shipped so a
    reconfigured task never evaluates under a stale predecessor.  (In-place
    mutation of a shipped task between submits is not detectable — don't.)
    """

    def __init__(self) -> None:
        self._kernels: set = set()
        self._tasks: Dict[str, int] = {}

    def claim(self, job) -> Tuple[Optional[dict], Optional[object]]:
        """The ``(kernel payload, task object)`` ``job`` still needs shipped
        to this worker (``None`` for what it already holds), marked sent."""
        payload = task = None
        if job.key.kernel_hash not in self._kernels:
            self._kernels.add(job.key.kernel_hash)
            payload = kernel_payload(job.kernel)
        if self._tasks.get(job.task.name) != id(job.task):
            self._tasks[job.task.name] = id(job.task)
            task = job.task
        return payload, task


def shard_index(kernel_hash: str, shards: int) -> int:
    """The shard owning a kernel: all of one kernel's queries land on one
    worker, whose simulator/IR memos for it therefore stay hot."""
    return int(kernel_hash[:8], 16) % shards


def resolve_worker_task(tasks: Dict[str, object], name: str):
    """The task a worker runs for ``name``: the instance shipped to it, else
    the in-tree registry's (remembered in ``tasks``)."""
    task = tasks.get(name)
    if task is None:
        from repro.tasks import get_task

        task = tasks[name] = get_task(name)
    return task


def run_job(pipeline, task, kernel, job):
    """Run one ``site`` or ``apply`` job — the exact code path the serial
    batcher runs, so every backend's answers are byte-identical to serial.

    ``job`` is anything with ``kind``/``site_index``/``action``/
    ``decisions`` (a :class:`WorkRequest` in workers, the service's own
    in-flight record for its inline fallback).  A site job returns its
    ``CachedMeasurement``.  An apply job runs the cached baseline +
    ``task.apply`` against a fresh local cache and returns that cache's
    entries — precisely this application's measurements, nothing more.
    """
    from repro.cache.reward_cache import CachedMeasurement, RewardCache

    if job.kind == "apply":
        local = RewardCache()
        local.measure_baseline(pipeline, kernel)
        task.apply(pipeline, kernel, dict(job.decisions or {}), reward_cache=local)
        return local.items()
    result = task.evaluate(pipeline, kernel, job.site_index, tuple(job.action))
    return CachedMeasurement(
        cycles=result.cycles, compile_seconds=result.compile_seconds
    )


def worker_main(
    worker_id: int,
    machine,
    default_symbol_value: int,
    inbox,
    outbox,
) -> None:
    """Process entry point: evaluate requests until a ``None`` sentinel.

    Importing the pipeline here (not at module import) keeps the service
    importable even where the spawn start method re-imports this module
    before the package's heavier dependencies are needed.
    """
    from repro.core.pipeline import CompileAndMeasure

    pipeline = CompileAndMeasure(
        machine=machine, default_symbol_value=default_symbol_value
    )
    kernels: Dict[str, LoopKernel] = {}
    tasks: Dict[str, object] = {}
    while True:
        request = inbox.get()
        if request is None:
            break
        try:
            if request.payload is not None:
                kernels[request.kernel_hash] = kernel_from_payload(request.payload)
            if request.task_payload is not None:
                tasks[request.task] = request.task_payload
            value = run_job(
                pipeline,
                resolve_worker_task(tasks, request.task),
                kernels[request.kernel_hash],
                request,
            )
            outbox.put(WorkResult(request.request_id, worker_id, value))
        except Exception:
            outbox.put(
                WorkResult(
                    request.request_id, worker_id, error=traceback.format_exc()
                )
            )
