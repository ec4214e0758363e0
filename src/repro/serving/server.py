"""Threaded TCP front end over a :class:`CompileService`.

The sockets are :mod:`repro.wire`'s: a :class:`~repro.wire.Listener`
accepts, and each :class:`~repro.wire.Connection` runs the reader thread.
What is the server's is the policy per connection: the reader admits each
decoded request into the service, and a writer thread resolves each
admitted future and writes its response back, in submission order per
connection — clients match by request id, see
:class:`repro.serving.client.TCPClient`.  The reader/writer split is what
lets one connection pipeline many requests: everything a client writes in
a burst is in the admission queue together, so the service coalesces and
micro-batches it.  Each response is its own small write; the wire has
Nagle off, so none of them waits for the client to ACK the one before.

A request the server cannot admit (bad payload, closed or full service)
is answered on the wire with an error response carrying its id; a line
that does not decode is answered with ``id: null``; an oversize line
closes the connection.

The server does not own the service's lifecycle beyond starting it:
``stop()`` closes the listener and connections; drain the service itself
with ``service.stop(drain=True)``.
"""

from __future__ import annotations

import queue as _queue
import threading
from typing import List, Optional, Tuple

from repro.serving.schema import CompileRequest, CompileResponse, ServingError
from repro.wire import Connection, Listener


class CompileServer:
    """Listen for optimization requests and feed them to a service.

    ``port=0`` (the default) binds an ephemeral port; read the actual
    address from :attr:`address` after :meth:`start`.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._host = host
        self._port = port
        self._listener: Optional[Listener] = None
        self._connections: List[Connection] = []
        self._writers: List[threading.Thread] = []
        self._lock = threading.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        if self._listener is None:
            raise ServingError("server is not started")
        return self._listener.address

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "CompileServer":
        if self._listener is None:
            self.service.start()
            self._listener = Listener(
                self._host, self._port, self._serve, name="compile-server-accept"
            )
        return self

    def stop(self) -> None:
        """Stop accepting and close every connection.

        In-flight requests already admitted to the service still resolve
        (and are written back if the connection survives until then); the
        service itself keeps running so callers control its drain.
        """
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        with self._lock:
            connections, self._connections = self._connections, []
            writers, self._writers = self._writers, []
        for connection in connections:
            connection.close()
        for writer in writers:
            writer.join(timeout=5.0)

    def __enter__(self) -> "CompileServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- connection handling --------------------------------------------------

    def _serve(self, connection: Connection) -> None:
        # Per-connection FIFO of futures/ready responses written back in
        # submission order; ``None`` is the writer's exit sentinel.
        outbox: "_queue.Queue" = _queue.Queue()

        def admit(payload: dict) -> None:
            try:
                request = CompileRequest.from_payload(payload)
                outbox.put((request.request_id, self.service.submit(request)))
            except ServingError as error:
                outbox.put((payload.get("id"), CompileResponse(error=str(error))))

        # Reader first: if the writer thread cannot start, closing the
        # connection (the listener does) ends the reader and nothing leaks.
        with self._lock:
            self._connections.append(connection)
        connection.start_reader(
            on_message=admit,
            on_error=lambda error: outbox.put((None, CompileResponse(error=str(error)))),
            on_close=lambda: outbox.put(None),
            name="compile-server-read",
        )
        writer = threading.Thread(
            target=self._write_loop,
            args=(connection, outbox),
            name="compile-server-write",
            daemon=True,
        )
        writer.start()
        with self._lock:
            self._writers.append(writer)

    def _write_loop(self, connection: Connection, outbox: "_queue.Queue") -> None:
        try:
            while True:
                entry = outbox.get()
                if entry is None:
                    return
                request_id, pending = entry
                if isinstance(pending, CompileResponse):
                    response = pending
                    response.request_id = request_id
                else:
                    try:
                        response = pending.result()
                    except Exception as error:
                        response = CompileResponse(
                            request_id=request_id, error=str(error)
                        )
                connection.send(response.to_payload())
        except OSError:
            return
