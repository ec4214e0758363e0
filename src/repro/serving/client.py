"""Clients for the compile service: in-process and TCP.

:class:`InProcessClient` wraps a :class:`~repro.serving.service.
CompileService` directly — the zero-serialization path tests and benchmarks
drive.  :class:`TCPClient` speaks the newline-delimited-JSON wire format of
:class:`~repro.serving.server.CompileServer` over one
:class:`repro.wire.Connection`, with pipelining:
:meth:`~TCPClient.optimize_many` submits every request before reading any
response (that concurrency is what the server's admission queue coalesces
into micro-batches), then matches responses to requests by id.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Sequence

from repro.serving.schema import CompileRequest, CompileResponse, ServingError
from repro.wire import Connection


def _as_request(request) -> CompileRequest:
    if isinstance(request, CompileRequest):
        return request
    if isinstance(request, str):
        return CompileRequest(source=request)
    raise TypeError(f"expected a CompileRequest or C source text, got {type(request)!r}")


class InProcessClient:
    """Drive a (started) service without sockets or serialization."""

    def __init__(self, service):
        self.service = service

    def optimize(
        self, request, timeout: Optional[float] = None
    ) -> CompileResponse:
        """Submit one request (a :class:`CompileRequest` or raw C source)
        and block for its response."""
        return self.service.optimize(_as_request(request), timeout)

    def optimize_many(
        self, requests: Sequence, timeout: Optional[float] = None
    ) -> List[CompileResponse]:
        """Submit every request before collecting any response.

        All requests are in flight together, so identical kernels coalesce
        and the admission queue fills whole micro-batches — the concurrent
        client behaviour the service is built for.
        """
        futures = [self.service.submit(_as_request(r)) for r in requests]
        return [future.result(timeout) for future in futures]


class TCPClient:
    """One :class:`~repro.wire.Connection` to a :class:`CompileServer`.

    Thread-compatible (a lock serializes use); requests without an id get a
    connection-unique one so pipelined responses match up even if the
    server completes them out of order.  A round trip that fails part-way
    (timeout, short read, malformed reply) leaves unread responses behind,
    so it closes the connection and later calls fail fast.
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0):
        self._connection = Connection.dial(host, port, timeout)
        self._lock = threading.Lock()
        self._ids = itertools.count()

    @classmethod
    def connect(cls, address, timeout: Optional[float] = 30.0) -> "TCPClient":
        """Connect to a server's ``(host, port)`` address tuple."""
        host, port = address
        return cls(host, port, timeout=timeout)

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "TCPClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- requests -------------------------------------------------------------

    def _tagged(self, request) -> CompileRequest:
        request = _as_request(request)
        if request.request_id is None:
            request.request_id = f"c{next(self._ids)}"
        return request

    def optimize(self, request) -> CompileResponse:
        return self.optimize_many([request])[0]

    def optimize_many(self, requests: Sequence) -> List[CompileResponse]:
        """Pipelined round trip: write all requests, then read all responses.

        The burst arrives at the server as concurrent work, which is what
        makes coalescing and micro-batching kick in server-side.  Request
        ids must be unique within the window (responses are matched by id);
        a duplicate raises :class:`ValueError` before anything is sent.
        """
        with self._lock:
            if self._connection.closed:
                raise ServingError("connection is closed")
            tagged = [self._tagged(r) for r in requests]
            ids = [r.request_id for r in tagged]
            if len(set(ids)) != len(ids):
                duplicates = sorted({i for i in ids if ids.count(i) > 1})
                raise ValueError(f"duplicate request id(s) in one window: {duplicates}")
            by_id: Dict[str, CompileResponse] = {}
            try:
                self._connection.send(*(r.to_payload() for r in tagged))
                for _ in tagged:
                    payload = self._connection.receive()
                    if payload is None:
                        raise ServingError("server closed the connection")
                    response = CompileResponse.from_payload(payload)
                    by_id[response.request_id] = response
            except BaseException:
                self._connection.close()
                raise
        missing = [r.request_id for r in tagged if r.request_id not in by_id]
        if missing:
            raise ServingError(f"server never answered request(s) {missing}")
        return [by_id[request.request_id] for request in tagged]
