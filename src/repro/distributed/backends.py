"""Transports under :class:`repro.distributed.service.EvaluationService`.

The service's dedup/dispatch/drain core is written once; a backend hides
nothing but how a job reaches a worker and how its answer comes back:

* no backend at all (``workers == 0``) — the service evaluates in-process
  through a plain :class:`~repro.cache.reward_cache.EvaluationBatcher`;
* :class:`ProcessPoolBackend` — ``multiprocessing`` workers fed through
  queues.  Pool workers are never *lost*: a dead process is fatal (a
  ``RuntimeError`` naming it);
* :class:`repro.fleet.FleetCoordinator` — remote workers over TCP, which
  can die, go silent or tear away; it reports those as ``lost`` events and
  the service re-shards their orphans.
"""

from __future__ import annotations

import queue as queue_module
from typing import List, Optional, Protocol, Tuple

from repro.distributed.worker import (
    ShippedPayloads,
    WorkRequest,
    WorkResult,
    shard_index,
    worker_main,
)


class EvaluationBackend(Protocol):
    """What the service core needs from a transport."""

    @property
    def workers(self) -> int:
        """Live workers right now; ``0`` sends the service down its
        in-process path."""

    def send(self, request_id: int, job) -> Optional[str]:
        """Ship ``job`` to the live worker owning its kernel's shard.
        Returns that worker's name, or ``None`` when no worker is live."""

    def poll(
        self, timeout: float
    ) -> Optional[Tuple[str, str, Optional[WorkResult]]]:
        """Wait up to ``timeout`` for the next event: ``("result", worker,
        WorkResult)``, ``("lost", worker, None)``, or ``None`` when nothing
        happened (a liveness-check interval, not a deadline)."""

    def close(self) -> None:
        """Stop the workers / drop the connections.  Idempotent."""


class ProcessPoolBackend:
    """A fixed pool of worker processes, one FIFO inbox queue each (a job's
    ``priority`` only orders work inside fleet workers)."""

    def __init__(self, machine, default_symbol_value: int, workers: int):
        import multiprocessing

        # fork is cheapest and always available on the Linux targets; fall
        # back to the platform default (spawn) elsewhere — the worker entry
        # point and payloads are written to survive either.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._outbox = context.Queue()
        self._processes: List = []
        self._inboxes: List = []
        self._shipped: List[ShippedPayloads] = []
        for worker_id in range(workers):
            inbox = context.Queue()
            process = context.Process(
                target=worker_main,
                args=(worker_id, machine, default_symbol_value, inbox, self._outbox),
                daemon=True,
                name=f"reward-eval-worker-{worker_id}",
            )
            process.start()
            self._processes.append(process)
            self._inboxes.append(inbox)
            self._shipped.append(ShippedPayloads())

    @property
    def workers(self) -> int:
        return len(self._processes)

    def send(self, request_id: int, job) -> Optional[str]:
        shard = shard_index(job.key.kernel_hash, len(self._processes))
        payload, task_payload = self._shipped[shard].claim(job)
        self._inboxes[shard].put(
            WorkRequest(
                request_id,
                job.key.kernel_hash,
                payload,
                job.site_index,
                job.action,
                job.task.name,
                task_payload,
                kind=job.kind,
                decisions=job.decisions,
            )
        )
        return self._processes[shard].name

    def poll(self, timeout: float):
        try:
            result = self._outbox.get(timeout=timeout)
        except queue_module.Empty:
            # Only an actually-dead worker (whose results would never
            # come) is fatal; a slow simulation just waits another round.
            dead = [
                process.name for process in self._processes if not process.is_alive()
            ]
            if dead:
                raise RuntimeError(f"evaluation worker(s) died: {dead}")
            return None
        return "result", self._processes[result.worker_id].name, result

    def close(self) -> None:
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for inbox in self._inboxes:
            inbox.cancel_join_thread()
            inbox.close()
        if self._processes:
            self._outbox.cancel_join_thread()
            self._outbox.close()
        self._processes = []
        self._inboxes = []
