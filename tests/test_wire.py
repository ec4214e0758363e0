"""Tests for the transport alone (repro.wire), over localhost.

Nothing here knows what a message means: framing, ordering, the send
lock, the exactly-once close report, the line cap, thread lifetime, Nagle
being off on both ends and a listener that outlives a bad connection.
The serving and fleet suites cover what each protocol does on top.
"""

from __future__ import annotations

import queue
import socket
import statistics
import sys
import threading
import time

import pytest

import repro.fleet.protocol as fleet_protocol
import repro.serving.schema as serving_schema
from repro import wire
from repro.fleet.protocol import work_message
from repro.wire import Connection, Listener, WireError

FRAMING_MODULES = pytest.mark.parametrize(
    "module", [wire, serving_schema, fleet_protocol], ids=["wire", "serving", "fleet"]
)


class Peer:
    """A listener plus one dialed connection; ``accepted`` is the far end."""

    def __init__(self):
        arrivals: "queue.Queue" = queue.Queue()
        self.listener = Listener("127.0.0.1", 0, arrivals.put)
        self.dialed = Connection.dial(*self.listener.address, timeout=10.0)
        self.accepted: Connection = arrivals.get(timeout=10.0)

    def close(self):
        self.dialed.close()
        self.accepted.close()
        self.listener.stop()


@pytest.fixture
def peer():
    before = set(threading.enumerate())
    pair = Peer()
    yield pair
    pair.close()
    assert set(threading.enumerate()) <= before, "a transport thread outlived close()"


def collect(connection):
    """Start a reader that queues messages, errors and the close report."""
    events: "queue.Queue" = queue.Queue()
    connection.start_reader(
        on_message=lambda message: events.put(("message", message)),
        on_error=lambda error: events.put(("error", str(error))),
        on_close=lambda: events.put(("closed", None)),
    )
    return events


def drain(events, timeout=10.0):
    """Every event up to and including the first close report."""
    seen = []
    while not seen or seen[-1][0] != "closed":
        seen.append(events.get(timeout=timeout))
    return seen


# -- framing ------------------------------------------------------------------


def test_both_protocols_re_export_the_one_framing_pair():
    for module in (serving_schema, fleet_protocol):
        assert module.encode_message is wire.encode_message
        assert module.decode_message is wire.decode_message
    assert fleet_protocol.FleetProtocolError is WireError


@FRAMING_MODULES
def test_message_round_trip(module):
    message = work_message(7, "site", "deadbeef" * 5, 0, (4, 2), "vectorization")
    line = module.encode_message(message)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert module.decode_message(line) == message


@FRAMING_MODULES
@pytest.mark.parametrize(
    "line", [b"{not json", b"[1,2]", b'"text"', b"\xff\xfe{}"],
    ids=["malformed", "array", "string", "not-utf8"],
)
def test_undecodable_line_raises_wire_error(module, line):
    with pytest.raises(WireError):
        module.decode_message(line)


# -- a connection -------------------------------------------------------------


def test_pipelined_burst_arrives_in_order(peer):
    burst = [{"n": n} for n in range(200)]
    peer.dialed.send(*burst)
    assert [peer.accepted.receive() for _ in burst] == burst


def test_malformed_line_is_reported_and_the_connection_survives(peer):
    events = collect(peer.accepted)
    peer.dialed._sock.sendall(b'{"n":1}\n\n{broken\n{"n":2}\n')
    peer.dialed.close()
    kinds = drain(events)
    assert kinds[0] == ("message", {"n": 1})
    assert kinds[1][0] == "error" and "malformed" in kinds[1][1]
    assert kinds[2:] == [("message", {"n": 2}), ("closed", None)]


def test_concurrent_senders_never_interleave_within_a_line(peer):
    events = collect(peer.accepted)
    # Lines far larger than a socket buffer, so an unlocked sendall would
    # be preempted mid-line.
    filler = "x" * 4_000_000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        senders = [
            threading.Thread(
                target=lambda who=who: [
                    peer.dialed.send({"who": who, "n": n, "pad": filler})
                    for n in range(6)
                ]
            )
            for who in ("a", "b")
        ]
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join(timeout=30.0)
            assert not sender.is_alive()
    finally:
        sys.setswitchinterval(interval)
    peer.dialed.close()
    seen = drain(events, timeout=30.0)
    assert [kind for kind, _ in seen].count("error") == 0
    messages = [value for kind, value in seen if kind == "message"]
    for who in ("a", "b"):
        assert [m["n"] for m in messages if m["who"] == who] == list(range(6))


@pytest.mark.parametrize("ending", ["eof", "tear", "local-close"])
def test_close_is_reported_exactly_once(peer, ending):
    events = collect(peer.accepted)
    peer.dialed.send({"n": 1})
    assert events.get(timeout=10.0) == ("message", {"n": 1})
    if ending == "eof":
        peer.dialed._sock.shutdown(socket.SHUT_WR)
    elif ending == "tear":
        peer.dialed.close()
    else:
        peer.accepted.close()
    assert events.get(timeout=10.0) == ("closed", None)
    peer.accepted.close()
    peer.accepted.close()
    assert events.empty()
    assert peer.accepted.closed
    assert peer.accepted.receive() is None
    with pytest.raises(OSError):
        peer.accepted.send({"n": 2})


def test_oversize_line_closes_the_connection(peer, monkeypatch):
    monkeypatch.setattr(wire, "MAX_LINE_BYTES", 1024)
    events = collect(peer.accepted)
    peer.dialed.send({"pad": "x" * 512})
    # No newline, ever: the reader must give up at the cap, not buffer on.
    peer.dialed._sock.sendall(b"y" * 4096)
    seen = drain(events)
    assert [kind for kind, _ in seen] == ["message", "closed"]
    assert peer.accepted.closed


def test_oversize_line_raises_from_a_blocking_receive(peer, monkeypatch):
    monkeypatch.setattr(wire, "MAX_LINE_BYTES", 1024)
    peer.dialed._sock.sendall(b"y" * 1024 + b"\n")
    with pytest.raises(WireError, match="exceeds"):
        peer.accepted.receive()
    assert peer.accepted.closed


def test_receive_timeout_is_an_os_error(peer):
    peer.accepted.settimeout(0.05)
    with pytest.raises(OSError):
        peer.accepted.receive()


def test_nagle_is_off_on_the_dialed_and_the_accepted_side(peer):
    for connection in (peer.dialed, peer.accepted):
        assert connection._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_write_write_read_does_not_wait_for_a_delayed_ack(peer):
    """Two sends then one reply: with Nagle on, the second send waits for
    the reading peer's delayed ACK — a ~40 ms kernel timer, whatever the
    host's speed."""
    peer.accepted.start_reader(
        on_message=lambda message: message["last"] and peer.accepted.send(message),
        on_close=lambda: None,
    )
    round_trips = []
    for n in range(20):
        start = time.perf_counter()
        peer.dialed.send({"n": n, "last": False})
        peer.dialed.send({"n": n, "last": True})
        assert peer.dialed.receive() == {"n": n, "last": True}
        round_trips.append(time.perf_counter() - start)
    assert statistics.median(round_trips) < 0.020


# -- a listener ---------------------------------------------------------------


def test_listener_outlives_a_connection_whose_handler_raises():
    before = set(threading.enumerate())
    accepted = []

    def handler(connection):
        accepted.append(connection)
        if len(accepted) == 1:
            raise RuntimeError("cannot start a thread")
        connection.send({"served": True})

    listener = Listener("127.0.0.1", 0, handler)
    try:
        first = Connection.dial(*listener.address, timeout=10.0)
        assert first.receive() is None  # dropped: closed, not left hanging
        second = Connection.dial(*listener.address, timeout=10.0)
        assert second.receive() == {"served": True}
        assert [connection.closed for connection in accepted] == [True, False]
        for connection in (first, second, accepted[1]):
            connection.close()
    finally:
        listener.stop()
    assert set(threading.enumerate()) <= before


def test_listener_stop_is_idempotent_and_refuses_new_dials():
    before = set(threading.enumerate())
    listener = Listener("127.0.0.1", 0, lambda connection: connection.close())
    address = listener.address
    listener.stop()
    listener.stop()
    assert set(threading.enumerate()) <= before
    with pytest.raises(OSError):
        Connection.dial(*address, timeout=1.0)
