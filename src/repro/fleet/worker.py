"""The fleet worker daemon: a TCP reward-measurement server.

A :class:`FleetWorker` is the multi-host analogue of the process worker in
:mod:`repro.distributed.worker`: it hosts its own
:class:`~repro.core.pipeline.CompileAndMeasure` pipeline per coordinator
connection (built from the coordinator's ``hello``, so measurements run
under exactly the caller's machine model and symbol defaults), keeps
kernels by content hash and tasks by name — each shipped at most once per
connection — and answers ``site`` and ``apply`` work with the *same code
paths* the serial batcher runs, so fleet answers are byte-identical to
serial ones.

The worker holds one worker-local reward cache shared by all connections.
With ``store_dir`` that cache holds a
:class:`~repro.distributed.store.PersistentRewardStore` over the shared
directory — the fleet-wide cache: the store's append-only multi-writer
segments mean many workers (and the coordinator itself) write the same
directory safely, and a worker restarted against it comes back warm.

Sockets and threads are :mod:`repro.wire`'s, the transport
:class:`repro.serving.server.CompileServer` rides too: a
:class:`~repro.wire.Listener` accepts, and each
:class:`~repro.wire.Connection` runs a reader thread that routes messages
here.  Per connection the worker adds one evaluator thread draining a
priority queue (demand before speculative prefetch); it and the reader
write through the connection's locked ``send``.  :class:`WorkerFaults`
injects the failure modes the fault-tolerance tests exercise — abrupt
death mid-batch, silent heartbeat loss, a torn connection.
"""

from __future__ import annotations

import argparse
import queue as _queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.reward_cache import RewardCache
from repro.distributed.worker import (
    kernel_from_payload,
    resolve_worker_task,
    run_job,
)
from repro.fleet.protocol import (
    FleetError,
    b64_to_pickle,
    decode_work,
    encode_entries,
    pong_message,
    register_message,
    result_message,
    welcome_message,
)
from repro.wire import Connection, Listener

_WORKER_SEQUENCE = [0]
_WORKER_SEQUENCE_LOCK = threading.Lock()


def _next_worker_name() -> str:
    with _WORKER_SEQUENCE_LOCK:
        _WORKER_SEQUENCE[0] += 1
        return f"fleet-worker-{_WORKER_SEQUENCE[0]}"


@dataclass
class WorkerFaults:
    """Failure injection for the fault-tolerance tests.

    ``die_after`` — after answering N work items, the whole worker drops
    abruptly (listener and every connection closed with no ``bye``), like
    a host losing power; coordinators see EOF.  ``drop_heartbeats_after``
    — after N answers the worker goes silent: it keeps reading but sends
    nothing (no pongs, no results), so only a heartbeat timeout can
    unmask it.  ``tear_after`` — after N answers the current connection
    alone is torn; the worker itself stays up for fresh dials.
    """

    die_after: Optional[int] = None
    drop_heartbeats_after: Optional[int] = None
    tear_after: Optional[int] = None


class _Session:
    """One coordinator connection: its pipeline, payloads, work queue and
    the evaluator thread draining it."""

    def __init__(self, connection: Connection):
        self.connection = connection
        self.evaluator: Optional[threading.Thread] = None
        self.pipeline = None
        self.kernels: Dict[str, object] = {}
        self.tasks: Dict[str, object] = {}
        # (priority, arrival sequence, message): demand (0) outranks
        # prefetch (1); arrival order breaks ties so demand stays FIFO.
        # The stop sentinel sorts first of all so shutdown never waits
        # behind queued speculation.
        self.work: "_queue.PriorityQueue" = _queue.PriorityQueue()
        self._sequence = 0

    STOP = (-1, -1, None)

    def enqueue_work(self, message: dict) -> None:
        self._sequence += 1
        priority = int(message.get("priority", 0))
        self.work.put((priority, self._sequence, message))


class FleetWorker:
    """Serve reward measurements to fleet coordinators over TCP.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.  ``store_dir`` points the worker-local cache at the
    shared persistent store directory (the fleet-wide cache).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir=None,
        name: Optional[str] = None,
        faults: Optional[WorkerFaults] = None,
    ):
        self.name = name or _next_worker_name()
        self.faults = faults or WorkerFaults()
        self._host = host
        self._port = port
        self._store_dir = store_dir
        self.cache = None
        self._cache_lock = threading.Lock()
        self._listener: Optional[Listener] = None
        self._sessions: List[_Session] = []
        self._lock = threading.Lock()
        # Observability for the payload-dedup and fault tests.
        self.kernels_received = 0
        self.tasks_received = 0
        self.evaluations = 0
        self.results_sent = 0
        self._silent = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise FleetError("fleet worker is not started")
        return self._listener.address

    def start(self) -> "FleetWorker":
        if self._listener is not None:
            return self
        if self.cache is None:
            if self._store_dir is not None:
                from repro.distributed.store import PersistentRewardStore

                self.cache = RewardCache(PersistentRewardStore(self._store_dir))
            else:
                self.cache = RewardCache()
        self._listener = Listener(
            self._host, self._port, self._spawn_session, name=f"{self.name}-accept"
        )
        return self

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        with self._lock:
            sessions, self._sessions = self._sessions, []
        for session in sessions:
            # Closing ends the session's reader, which stops its evaluator.
            session.connection.close()
        current = threading.current_thread()
        for session in sessions:
            # die() is called from a session's own evaluator thread.
            if session.evaluator is not current:
                session.evaluator.join(timeout=5.0)
        if self.cache is not None:
            with self._cache_lock:
                self.cache.close()

    def die(self) -> None:
        """Abrupt full-worker death: every socket closed, nothing sent."""
        self._silent = True
        self.stop()

    def __enter__(self) -> "FleetWorker":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- connections ----------------------------------------------------------

    def dial(self, host: str, port: int) -> None:
        """Register with a *listening* coordinator instead of being dialed."""
        if self.cache is None:
            self.start()
        connection = Connection.dial(host, port, timeout=10.0)
        connection.settimeout(None)
        connection.send(register_message(self.name))
        self._spawn_session(connection)

    def _spawn_session(self, connection: Connection) -> None:
        session = _Session(connection)
        session.evaluator = threading.Thread(
            target=self._evaluate_loop, args=(session,),
            name=f"{self.name}-eval", daemon=True,
        )
        with self._lock:
            self._sessions.append(session)
        session.evaluator.start()
        connection.start_reader(
            on_message=lambda message: self._route(session, message),
            on_close=lambda: session.work.put(_Session.STOP),
            name=f"{self.name}-read",
        )

    # -- message handling -----------------------------------------------------

    def _route(self, session: _Session, message: dict) -> None:
        kind = message.get("type")
        if kind == "hello":
            self._handle_hello(session, message)
        elif kind == "kernel":
            session.kernels[message["hash"]] = kernel_from_payload(message["kernel"])
            self.kernels_received += 1
        elif kind == "task":
            session.tasks[message["name"]] = b64_to_pickle(message["data"])
            self.tasks_received += 1
        elif kind == "work":
            session.enqueue_work(message)
        elif kind == "ping":
            self._send(session, pong_message(message.get("n", 0)))
        elif kind == "bye":
            session.connection.close()

    def _handle_hello(self, session: _Session, message: dict) -> None:
        from repro.core.pipeline import CompileAndMeasure

        machine = b64_to_pickle(message["machine"])
        session.pipeline = CompileAndMeasure(
            machine=machine,
            default_symbol_value=int(message.get("default_symbol_value", 100)),
        )
        self._send(session, welcome_message(self.name))

    def _send(self, session: _Session, payload: dict) -> None:
        if self._silent:
            # Fault injection: the worker is "alive" but mute — results and
            # pongs vanish, only a heartbeat timeout can detect it.
            return
        session.connection.send(payload)
        if payload.get("type") == "result":
            self.results_sent += 1
            faults = self.faults
            if (
                faults.drop_heartbeats_after is not None
                and self.results_sent >= faults.drop_heartbeats_after
            ):
                self._silent = True
            if faults.tear_after is not None and self.results_sent >= faults.tear_after:
                # Abruptly drop this connection alone (no ``bye``).
                session.connection.close()

    # -- evaluation -----------------------------------------------------------

    def _evaluate_loop(self, session: _Session) -> None:
        while True:
            item = session.work.get()
            _priority, _sequence, message = item
            if message is None:
                return
            faults = self.faults
            if faults.die_after is not None and self.evaluations >= faults.die_after:
                self.die()
                return
            self.evaluations += 1
            try:
                self._send(session, self._evaluate(session, message))
            except OSError:
                return

    def _evaluate(self, session: _Session, message: dict) -> dict:
        import traceback

        request_id = int(message.get("id", 0))
        try:
            if session.pipeline is None:
                raise FleetError("work before hello: no pipeline configured")
            pipeline = session.pipeline
            job = decode_work(message)
            kernel = session.kernels[job.kernel_hash]
            task = resolve_worker_task(session.tasks, job.task)
            if job.kind == "apply":
                # The application's entries ship back and also warm the
                # worker-local cache.
                entries = run_job(pipeline, task, kernel, job)
                with self._cache_lock:
                    self.cache.merge(entries)
                return result_message(request_id, entries=encode_entries(entries))
            key = self.cache.site_key(
                pipeline, task, kernel, job.site_index, job.action
            )
            with self._cache_lock:
                cached = self.cache.peek(key)
            if cached is None:
                cached = run_job(pipeline, task, kernel, job)
                with self._cache_lock:
                    self.cache.merge([(key, cached)])
            return result_message(
                request_id,
                cycles=cached.cycles,
                compile_seconds=cached.compile_seconds,
            )
        except Exception:
            return result_message(request_id, error=traceback.format_exc())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a fleet evaluation worker daemon."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--store-dir", default=None,
                        help="shared persistent reward-store directory")
    parser.add_argument("--name", default=None)
    parser.add_argument("--coordinator", default=None, metavar="HOST:PORT",
                        help="dial in and register with a listening coordinator")
    args = parser.parse_args(argv)
    worker = FleetWorker(
        host=args.host, port=args.port, store_dir=args.store_dir, name=args.name
    )
    worker.start()
    if args.coordinator:
        host, _, port = args.coordinator.rpartition(":")
        worker.dial(host, int(port))
        print(f"{worker.name} registered with {args.coordinator}", flush=True)
    else:
        host, port = worker.address
        print(f"{worker.name} listening on {host}:{port}", flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        worker.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
