"""Fleet coordination: the remote-worker backend and its service.

* :class:`FleetCoordinator` owns the worker connections (each a
  :class:`repro.wire.Connection`) — dialing workers (or accepting their
  dial-in registrations via :meth:`listen`), the hello/welcome handshake,
  what each inbound message means, one heartbeat thread, and loss
  detection.  It is the fleet *backend* of
  :class:`~repro.distributed.service.EvaluationService`
  (see :mod:`repro.distributed.backends`): :meth:`send` ships a job to the
  live worker owning its kernel's shard, and everything that happens on
  the wire becomes one of two events from :meth:`poll` — a ``result`` or a
  worker ``lost`` — so all recovery logic runs single-threaded in the
  service.

* :class:`FleetEvaluationService` is that one service constructed over a
  coordinator: dedup, dispatch, loss recovery (retry, re-shard, inline
  fallback) and speculative prefetch are the shared core's, so fleet
  results are byte-identical to serial regardless of sharding or failures.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.reward_cache import CachedMeasurement, RewardCache
from repro.distributed.service import EvaluationService
from repro.distributed.worker import ShippedPayloads, WorkResult, shard_index
from repro.fleet.protocol import (
    FleetError,
    FleetProtocolError,
    bye_message,
    decode_entries,
    hello_message,
    kernel_message,
    ping_message,
    task_message,
    work_message,
)
from repro.wire import Connection, Listener


class _RemoteWorker:
    """One connected fleet worker: connection, liveness, shipped payloads."""

    def __init__(self, name: str, connection: Connection):
        self.name = name
        self.connection = connection
        self.last_seen = time.monotonic()
        self.alive = True
        self.shipped = ShippedPayloads()


class FleetCoordinator:
    """Manage fleet-worker connections, heartbeats, and loss detection."""

    def __init__(
        self,
        machine,
        default_symbol_value: int,
        connect_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
    ):
        self.machine = machine
        self.default_symbol_value = int(default_symbol_value)
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        #: ("result", worker, message) and ("lost", worker, None) events.
        self.inbox: "queue_module.Queue" = queue_module.Queue()
        self._workers: Dict[str, _RemoteWorker] = {}
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._listener: Optional[Listener] = None
        self._ping_sequence = 0

    # -- connection management ---------------------------------------------

    def dial(self, addresses: Sequence[str]) -> List[str]:
        """Connect to ``host:port`` workers; unreachable ones are skipped.

        Returns the names of the workers that completed the handshake.
        """
        connected = []
        for address in addresses:
            host, _, port_text = str(address).rpartition(":")
            try:
                connection = Connection.dial(
                    host or "127.0.0.1", int(port_text), self.connect_timeout
                )
            except (OSError, ValueError):
                continue
            name = self._handshake(connection)
            if name is not None:
                connected.append(name)
        self._ensure_heartbeat()
        return connected

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Accept dial-in worker registrations; returns the bound address."""
        if self._listener is None:
            self._listener = Listener(
                host,
                port,
                lambda connection: self._handshake(connection, expect_register=True),
                name="fleet-coordinator-accept",
            )
            self._ensure_heartbeat()
        return self._listener.address

    def _handshake(
        self, connection: Connection, expect_register: bool = False
    ) -> Optional[str]:
        """hello → welcome (dial-out) or register → hello → welcome (dial-in).

        Returns the worker's name, or ``None`` (connection closed) when the
        peer hangs up, times out, speaks out of turn or reuses a name.
        """
        try:
            connection.settimeout(self.connect_timeout)
            if expect_register:
                self._expect(connection, "register")
            connection.send(hello_message(self.machine, self.default_symbol_value))
            name = str(self._expect(connection, "welcome")["worker"])
            connection.settimeout(None)
            worker = _RemoteWorker(name, connection)
            with self._lock:
                if name in self._workers:
                    raise FleetError(f"duplicate fleet worker name: {name!r}")
                self._workers[name] = worker
        except (OSError, KeyError, FleetError, FleetProtocolError):
            connection.close()
            return None

        def on_message(message: dict) -> None:
            # Anything inbound proves the worker is alive.
            worker.last_seen = time.monotonic()
            if message.get("type") == "result":
                self.inbox.put(("result", name, message))

        connection.start_reader(
            on_message,
            on_close=lambda: self.mark_lost(name),
            name=f"fleet-read-{name}",
        )
        return name

    @staticmethod
    def _expect(connection: Connection, expected: str) -> dict:
        message = connection.receive()
        if message is None:
            raise FleetError(f"fleet connection closed before {expected!r}")
        if message.get("type") != expected:
            raise FleetProtocolError(
                f"expected {expected!r} during fleet handshake, "
                f"got {message.get('type')!r}"
            )
        return message

    def _ensure_heartbeat(self) -> None:
        if self._heartbeat_thread is not None:
            return
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    # -- liveness ----------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stopping.is_set():
            time.sleep(self.heartbeat_interval)
            self.check_timeouts()
            self._ping_sequence += 1
            for worker in self.live_worker_records():
                try:
                    worker.connection.send(ping_message(self._ping_sequence))
                except OSError:
                    self.mark_lost(worker.name)

    def check_timeouts(self) -> None:
        """Declare lost every worker silent for longer than the timeout."""
        deadline = time.monotonic() - self.heartbeat_timeout
        for worker in self.live_worker_records():
            if worker.last_seen < deadline:
                self.mark_lost(worker.name)

    def mark_lost(self, name: str) -> None:
        """Idempotently declare one worker dead and emit a loss event."""
        with self._lock:
            worker = self._workers.get(name)
            if worker is None or not worker.alive:
                return
            worker.alive = False
        worker.connection.close()
        self.inbox.put(("lost", name, None))

    # -- queries -----------------------------------------------------------

    def live_workers(self) -> List[str]:
        with self._lock:
            return sorted(
                name for name, worker in self._workers.items() if worker.alive
            )

    def live_worker_records(self) -> List[_RemoteWorker]:
        with self._lock:
            return [worker for worker in self._workers.values() if worker.alive]

    # -- the evaluation backend ----------------------------------------------

    @property
    def workers(self) -> int:
        return len(self.live_workers())

    def send(self, request_id: int, job) -> Optional[str]:
        """Ship one job to its shard over the sorted live set; a worker
        whose connection fails mid-send is marked lost and the shard
        re-picked.  ``None`` only when zero live workers remain."""
        while True:
            live = sorted(self.live_worker_records(), key=lambda w: w.name)
            if not live:
                return None
            worker = live[shard_index(job.key.kernel_hash, len(live))]
            messages = []
            payload, task = worker.shipped.claim(job)
            if payload is not None:
                messages.append(kernel_message(job.key.kernel_hash, payload))
            if task is not None:
                messages.append(task_message(task.name, task))
            messages.append(
                work_message(
                    request_id,
                    job.kind,
                    job.key.kernel_hash,
                    job.site_index,
                    job.action,
                    job.task.name,
                    decisions=job.decisions,
                    priority=job.priority,
                )
            )
            try:
                worker.connection.send(*messages)
                return worker.name
            except OSError:
                self.mark_lost(worker.name)

    def poll(self, timeout: float):
        """The next ``("result", worker, WorkResult)`` or ``("lost",
        worker, None)`` event; dead workers surface through the heartbeat,
        so an idle interval only re-checks the timeouts."""
        try:
            event, name, message = self.inbox.get(timeout=timeout)
        except queue_module.Empty:
            self.check_timeouts()
            return None
        if event == "lost":
            return event, name, None
        if message.get("entries") is not None:
            value = decode_entries(message["entries"])
        else:
            value = CachedMeasurement(
                cycles=float(message["cycles"]),
                compile_seconds=float(message["compile_seconds"]),
            )
        return event, name, WorkResult(
            int(message["id"]), name, value, error=message.get("error")
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5.0)
            self._heartbeat_thread = None
        for worker in self.live_worker_records():
            # An orderly goodbye is not a loss: no event for these.
            worker.alive = False
            try:
                worker.connection.send(bye_message())
            except OSError:
                pass
            worker.connection.close()


class FleetEvaluationService(EvaluationService):
    """The :class:`EvaluationService` sharded across remote fleet workers.

    ``submit`` dispatches unique cache misses to live workers (sharded by
    kernel content hash over the sorted live set), futures resolve as
    results stream back, and worker loss re-shards orphaned demand onto
    survivors — or evaluates it inline on the coordinator's own pipeline
    when no workers survive, so a run always completes with byte-identical
    results.
    """

    def __init__(
        self,
        pipeline,
        cache: Optional[RewardCache] = None,
        addresses: Sequence[str] = (),
        coordinator: Optional[FleetCoordinator] = None,
        result_timeout: float = 120.0,
        connect_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
        prefetch_top_k: int = 8,
        prefetch_horizon: Optional[int] = None,
    ):
        super().__init__(pipeline, cache, result_timeout=result_timeout)
        self.max_retries = int(max_retries)
        self.retry_backoff = retry_backoff
        self.prefetch_top_k = int(prefetch_top_k)
        self.prefetch_horizon = prefetch_horizon
        if coordinator is None:
            coordinator = FleetCoordinator(
                pipeline.machine,
                pipeline.default_symbol_value,
                connect_timeout=connect_timeout,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
            )
            coordinator.dial(addresses)
        self.coordinator = coordinator
        self._backend = coordinator
        self.stats.remote = True

    @classmethod
    def connect(
        cls,
        pipeline,
        cache: Optional[RewardCache] = None,
        addresses: Sequence[str] = (),
        fallback_workers: int = 0,
        **knobs,
    ) -> "FleetEvaluationService":
        """Build a fleet service, or degrade gracefully when nobody answers.

        When zero remote workers are reachable the service swaps its
        backend for a local pool of ``fallback_workers`` processes (none:
        the serial in-process path) and stops speculating, so callers
        configure one code path and still run anywhere.
        """
        service = cls(pipeline, cache, addresses=addresses, **knobs)
        if service.workers == 0:
            service.coordinator.close()
            service._backend = service.coordinator = None
            service.stats.remote = False
            service.prefetch_top_k = 0
            service._start_pool(fallback_workers)
        return service
