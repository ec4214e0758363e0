"""The one wire layer: newline-delimited JSON over a TCP socket.

Everything about *moving* messages and nothing about what they mean: the
framing pair, a :class:`Listener` (the one place a listening socket is
configured) and a :class:`Connection` (the one place a stream socket is
dialed, written, read and torn down).  :mod:`repro.serving` and
:mod:`repro.fleet` ride it and keep only their vocabulary and policy.

Nagle is off (``TCP_NODELAY``) on every connection, dialed or accepted:
the riders exchange small messages and wait for the answer, and with Nagle
on a second small write waits for the peer's delayed ACK (~40 ms) whenever
the peer is only reading.  Batching is therefore the sender's job: pass
everything that is ready to one :meth:`Connection.send`.

A malformed line raises :class:`WireError` and the connection stays usable
(the server answers it, the fleet skips it); a line over
:data:`MAX_LINE_BYTES` raises it *and* closes the connection, so a peer
that never sends a newline cannot grow the process.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from typing import Callable, Optional, Tuple

#: Longest accepted line, newline included — well above the largest real
#: message (an ``apply`` result carrying every store entry, a kernel source).
MAX_LINE_BYTES = 16 * 1024 * 1024

_log = logging.getLogger(__name__)


class WireError(Exception):
    """A malformed or oversize wire message."""


def encode_message(payload: dict) -> bytes:
    """One JSON object per line — the wire format."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> dict:
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"malformed wire message: {error}") from error
    if not isinstance(payload, dict):
        raise WireError("wire messages must be JSON objects")
    return payload


class Connection:
    """One stream socket speaking the wire format, dialed or accepted.

    Adopts ``sock`` (and closes it if it cannot be set up) with Nagle off.
    """

    def __init__(self, sock: socket.socket):
        try:
            # Nagle off, for every rider — see the module docstring.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # e.g. the peer already reset
            sock.close()
            raise
        self._sock = sock
        self._stream = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._reader: Optional[threading.Thread] = None
        self.closed = False

    @classmethod
    def dial(cls, host: str, port: int, timeout: Optional[float]) -> "Connection":
        """Connect out; ``timeout`` stays on the socket (see :meth:`settimeout`)."""
        return cls(socket.create_connection((host, port), timeout=timeout))

    def settimeout(self, timeout: Optional[float]) -> None:
        self._sock.settimeout(timeout)

    def send(self, *payloads: dict) -> None:
        """Write the messages back to back as one ``sendall`` (with Nagle
        off, that is what keeps them in one segment); concurrent senders
        never interleave.  Raises :class:`OSError` on a dead connection."""
        data = b"".join([encode_message(payload) for payload in payloads])
        with self._send_lock:
            self._sock.sendall(data)

    def receive(self) -> Optional[dict]:
        """Block for the next non-blank line; ``None`` at EOF or after
        :meth:`close`.  Raises :class:`WireError`, and :class:`OSError` on a
        socket error or timeout."""
        while True:
            try:
                line = self._stream.readline(MAX_LINE_BYTES + 1)
            except ValueError:  # the stream was closed under us
                return None
            if not line:
                return None
            if len(line) > MAX_LINE_BYTES:
                self.close()
                raise WireError(f"wire line exceeds {MAX_LINE_BYTES} bytes")
            if line.strip():
                return decode_message(line)

    def start_reader(
        self,
        on_message: Callable[[dict], None],
        on_close: Callable[[], None],
        on_error: Optional[Callable[[WireError], None]] = None,
        name: str = "wire-read",
    ) -> None:
        """Hand every inbound message to ``on_message`` on one daemon thread;
        a malformed line goes to ``on_error`` (default: skipped).  When the
        peer hangs up, the socket fails, a callback raises or :meth:`close`
        is called, the connection is closed and ``on_close`` runs — exactly
        once, on the reader thread."""

        def read_loop() -> None:
            try:
                while True:
                    try:
                        message = self.receive()
                    except WireError as error:
                        if on_error is not None and not self.closed:
                            on_error(error)
                        continue
                    if message is None:
                        return
                    on_message(message)
            except OSError:
                pass
            finally:
                self.close()
                on_close()

        reader = threading.Thread(target=read_loop, name=name, daemon=True)
        reader.start()
        self._reader = reader

    def close(self) -> None:
        """Abrupt, idempotent teardown: wakes a blocked reader, closes the
        socket and joins the reader thread (unless called from it)."""
        with self._close_lock:
            already, self.closed = self.closed, True
        if not already:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._stream.close()
            self._sock.close()
        if self._reader not in (None, threading.current_thread()):
            self._reader.join(timeout=5.0)


class Listener:
    """A bound, listening socket and its accept thread.

    ``on_connection`` runs on the accept thread with each accepted
    :class:`Connection`; if it raises, that connection is closed, the
    failure is logged and the listener keeps accepting.  ``port=0`` binds
    an ephemeral port, read back from :attr:`address`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        on_connection: Callable[[Connection], None],
        name: str = "wire-accept",
    ):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(32)
        except OSError:
            self._sock.close()
            raise
        # A short accept timeout keeps the loop responsive to stop().
        self._sock.settimeout(0.2)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._on_connection = on_connection
        self._stopping = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name=name, daemon=True
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.settimeout(None)
            # One bad connection (a peer that already reset, a handler that
            # cannot start its threads) costs that socket, not the listener.
            try:
                connection = Connection(sock)
            except OSError:
                continue
            try:
                self._on_connection(connection)
            except Exception:
                _log.exception("connection handler failed; connection dropped")
                connection.close()

    def stop(self) -> None:
        """Stop accepting, join the accept thread, close the socket.
        Connections already accepted are the caller's to close."""
        self._stopping.set()
        self._thread.join()
        self._sock.close()
