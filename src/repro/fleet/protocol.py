"""Message vocabulary of the evaluation fleet.

The fleet's framing is :mod:`repro.wire`'s — the transport the serving
front end rides too: one JSON object per line.  What this module adds is
what the messages mean; ``type`` selects the message.  The vocabulary:

* ``hello`` / ``welcome`` — the handshake.  The coordinator sends ``hello``
  with the run's machine description and ``default_symbol_value`` (so every
  worker measures under exactly the caller's pipeline configuration); the
  worker answers ``welcome`` with its name.
* ``register`` — a worker dialing *in* to a listening coordinator announces
  itself first; the coordinator then proceeds with the normal ``hello``.
* ``kernel`` / ``task`` — content payloads, shipped at most once per
  (worker, content-hash) / (worker, task name, instance): later work
  messages reference the hash or name alone.
* ``work`` / ``result`` — one reward query and its answer.  ``kind`` is
  ``"site"`` (evaluate one action at one decision site) or ``"apply"``
  (whole-kernel application; the result ships every cache entry the
  application produced).  ``priority`` 0 is demand traffic, 1 is
  speculative prefetch — workers serve demand first.
* ``ping`` / ``pong`` — heartbeats; any inbound message counts as liveness.
* ``bye`` — orderly shutdown of one connection.

Machine descriptions and task objects are not JSON-able (nested cost-model
dataclasses, user-defined task classes), so they travel base64-pickled —
the same objects :class:`repro.distributed.EvaluationService` already
ships through its process queues.  Reward-store entries reuse the exact
six-element key layout of :mod:`repro.distributed.store` records.
"""

from __future__ import annotations

import base64
import pickle
from typing import List, Tuple

from repro.cache.reward_cache import CachedMeasurement, RewardKey
from repro.distributed.worker import PRIORITY_DEMAND, WorkRequest

# The framing pair and its error are the transport's; re-exported for
# callers that import them next to the message constructors.
from repro.wire import WireError, decode_message, encode_message  # noqa: F401

#: Bump when the message vocabulary changes incompatibly.
PROTOCOL_VERSION = 1


class FleetError(Exception):
    """Base class for fleet-evaluation failures."""


#: A malformed or unexpected fleet message.
FleetProtocolError = WireError


# ---------------------------------------------------------------------------
# Opaque payloads: machine descriptions and task objects
# ---------------------------------------------------------------------------


def pickle_to_b64(obj) -> str:
    """Base64 text of a pickled object (machine models, task instances)."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def b64_to_pickle(data: str):
    try:
        return pickle.loads(base64.b64decode(data.encode("ascii")))
    except Exception as error:
        raise FleetProtocolError(f"undecodable fleet payload: {error}") from error


# ---------------------------------------------------------------------------
# Reward-store entries on the wire
# ---------------------------------------------------------------------------
#
# The same six-element key array the persistent store writes per record,
# so fleet-shipped entries and store segments stay one format.


def encode_entry(key: RewardKey, measurement: CachedMeasurement) -> list:
    return [
        [
            key.kernel_hash,
            key.machine_hash,
            key.loop_index,
            key.task,
            list(key.action),
            key.default_symbol_value,
        ],
        measurement.cycles,
        measurement.compile_seconds,
    ]


def decode_entry(raw) -> Tuple[RewardKey, CachedMeasurement]:
    try:
        raw_key, cycles, compile_seconds = raw
        key = RewardKey(
            kernel_hash=str(raw_key[0]),
            machine_hash=str(raw_key[1]),
            loop_index=int(raw_key[2]),
            task=str(raw_key[3]),
            action=tuple(int(value) for value in raw_key[4]),
            default_symbol_value=int(raw_key[5]),
        )
        measurement = CachedMeasurement(
            cycles=float(cycles), compile_seconds=float(compile_seconds)
        )
    except (ValueError, TypeError, IndexError, KeyError) as error:
        raise FleetProtocolError(f"undecodable fleet entry: {error}") from error
    return key, measurement


def encode_entries(entries) -> List[list]:
    return [encode_entry(key, measurement) for key, measurement in entries]


def decode_entries(raw) -> List[Tuple[RewardKey, CachedMeasurement]]:
    return [decode_entry(entry) for entry in raw or []]


# ---------------------------------------------------------------------------
# Message constructors
# ---------------------------------------------------------------------------


def hello_message(machine, default_symbol_value: int) -> dict:
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "machine": pickle_to_b64(machine),
        "default_symbol_value": int(default_symbol_value),
    }


def welcome_message(worker: str) -> dict:
    return {"type": "welcome", "worker": worker}


def register_message(worker: str) -> dict:
    return {"type": "register", "worker": worker}


def kernel_message(kernel_hash: str, payload: dict) -> dict:
    return {"type": "kernel", "hash": kernel_hash, "kernel": payload}


def task_message(name: str, task) -> dict:
    return {"type": "task", "name": name, "data": pickle_to_b64(task)}


def work_message(
    request_id: int,
    kind: str,
    kernel_hash: str,
    site_index: int,
    action,
    task: str,
    decisions=None,
    priority: int = PRIORITY_DEMAND,
) -> dict:
    return {
        "type": "work",
        "id": int(request_id),
        "kind": kind,
        "hash": kernel_hash,
        "site": int(site_index),
        "action": [int(value) for value in action],
        "task": task,
        "decisions": (
            None
            if decisions is None
            else {
                str(site): [int(value) for value in chosen]
                for site, chosen in decisions.items()
            }
        ),
        "priority": int(priority),
    }


def decode_work(message: dict) -> WorkRequest:
    """The job a ``work`` message describes, as the :class:`WorkRequest`
    :func:`repro.distributed.worker.run_job` runs (kernel and task payloads
    travel separately, as ``kernel``/``task`` messages)."""
    return WorkRequest(
        int(message.get("id", 0)),
        message["hash"],
        None,
        int(message["site"]),
        tuple(int(value) for value in message["action"]),
        message["task"],
        kind=message.get("kind", "site"),
        decisions={
            int(site): tuple(int(value) for value in chosen)
            for site, chosen in (message.get("decisions") or {}).items()
        },
    )


def result_message(
    request_id: int,
    cycles: float = 0.0,
    compile_seconds: float = 0.0,
    error=None,
    entries=None,
) -> dict:
    return {
        "type": "result",
        "id": int(request_id),
        "cycles": float(cycles),
        "compile_seconds": float(compile_seconds),
        "error": error,
        "entries": entries,
    }


def ping_message(sequence: int) -> dict:
    return {"type": "ping", "n": int(sequence)}


def pong_message(sequence: int) -> dict:
    return {"type": "pong", "n": int(sequence)}


def bye_message() -> dict:
    return {"type": "bye"}
