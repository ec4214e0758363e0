"""Request/response schema of the compile service.

One optimization request is a kernel source plus the name of the registered
:class:`repro.tasks.OptimizationTask` that should decide for it; one
response carries the policy's per-site decisions, the measured cycles, the
speed-up over the compiler baseline, and serving metadata (which answer
tier served the request, whether it was coalesced with an identical
in-flight kernel, and its end-to-end latency).

Both sides serialize to plain ``dict`` payloads (``to_payload`` /
``from_payload``) so the TCP front end can speak newline-delimited JSON and
the in-process client can skip serialization entirely — the payloads are
the wire format, the dataclasses are the API.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# The framing pair is the transport's; re-exported for callers that import
# it next to the payload classes.
from repro.wire import decode_message, encode_message  # noqa: F401


class ServingError(Exception):
    """Base class for compile-service failures."""


class ServiceClosed(ServingError):
    """The service is shutting down (or closed) and admits no new requests."""


class AdmissionRejected(ServingError):
    """The admission queue is at capacity; the request was not enqueued."""


#: Answer tiers, from cheapest to most expensive.  ``store`` answered with
#: zero simulation (every measurement served by the warm reward store),
#: ``frontend`` skipped parse/AST/embedding (the serving observation memo
#: hit) but still simulated, ``cold`` ran the full pipeline.
TIER_STORE = "store"
TIER_FRONTEND = "frontend"
TIER_COLD = "cold"
TIERS = (TIER_STORE, TIER_FRONTEND, TIER_COLD)


@dataclass
class CompileRequest:
    """One kernel-optimization query.

    ``function_name`` may be omitted: the service resolves it to the first
    function containing a loop (the quickstart convention).  ``task`` names
    any registered optimization task; ``bindings`` fixes symbolic loop
    bounds exactly like :class:`repro.datasets.kernels.LoopKernel`.
    """

    source: str
    function_name: Optional[str] = None
    task: str = "vectorization"
    name: str = "kernel"
    bindings: Dict[str, int] = field(default_factory=dict)
    request_id: Optional[str] = None

    def fingerprint(self) -> str:
        """Content hash identical requests share (the coalescing key).

        Hashes everything that determines the *answer* — source text,
        function, bindings and task — but not the request id or display
        name, so two users submitting the same kernel share one
        computation.
        """
        digest = hashlib.sha1()
        digest.update(self.source.encode("utf-8"))
        digest.update(b"\x00")
        digest.update((self.function_name or "").encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.task.encode("utf-8"))
        for key, value in sorted(self.bindings.items()):
            digest.update(f"\x00{key}={value}".encode("utf-8"))
        return digest.hexdigest()

    def to_payload(self) -> dict:
        return {
            "id": self.request_id,
            "task": self.task,
            "kernel": {
                "name": self.name,
                "source": self.source,
                "function_name": self.function_name,
                "bindings": dict(self.bindings),
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompileRequest":
        kernel = payload.get("kernel") or {}
        if not isinstance(kernel, dict) or "source" not in kernel:
            raise ServingError("request payload lacks kernel.source")
        return cls(
            source=kernel["source"],
            function_name=kernel.get("function_name"),
            task=payload.get("task") or "vectorization",
            name=kernel.get("name") or "kernel",
            bindings={
                str(key): int(value)
                for key, value in (kernel.get("bindings") or {}).items()
            },
            request_id=payload.get("id"),
        )


@dataclass
class CompileResponse:
    """The service's answer to one :class:`CompileRequest`.

    ``decisions`` maps site index → the task's action tuple; ``tier`` is one
    of :data:`TIERS`; ``coalesced`` marks followers that shared another
    in-flight request's computation; ``batch_size`` is the size of the
    micro-batch (tick) the request rode in.  ``error`` carries a message on
    failure (all measurement fields are zero then).
    """

    request_id: Optional[str] = None
    kernel_name: str = "kernel"
    task: str = "vectorization"
    decisions: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    cycles: float = 0.0
    baseline_cycles: float = 0.0
    tier: str = TIER_COLD
    coalesced: bool = False
    latency_ms: float = 0.0
    batch_size: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def speedup(self) -> float:
        """Speed-up of the decided program over the compiler baseline."""
        if self.cycles <= 0:
            return float("nan") if self.baseline_cycles <= 0 else float("inf")
        return self.baseline_cycles / self.cycles

    @property
    def reward(self) -> float:
        """The paper's reward (Equation 2) for the served decisions."""
        return (self.baseline_cycles - self.cycles) / max(
            self.baseline_cycles, 1e-9
        )

    def to_payload(self) -> dict:
        return {
            "id": self.request_id,
            "kernel": self.kernel_name,
            "task": self.task,
            "decisions": {
                str(site): list(action) for site, action in self.decisions.items()
            },
            "cycles": self.cycles,
            "baseline_cycles": self.baseline_cycles,
            "speedup": self.speedup,
            "tier": self.tier,
            "coalesced": self.coalesced,
            "latency_ms": self.latency_ms,
            "batch_size": self.batch_size,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompileResponse":
        return cls(
            request_id=payload.get("id"),
            kernel_name=payload.get("kernel", "kernel"),
            task=payload.get("task", "vectorization"),
            decisions={
                int(site): tuple(int(v) for v in action)
                for site, action in (payload.get("decisions") or {}).items()
            },
            cycles=float(payload.get("cycles", 0.0)),
            baseline_cycles=float(payload.get("baseline_cycles", 0.0)),
            tier=payload.get("tier", TIER_COLD),
            coalesced=bool(payload.get("coalesced", False)),
            latency_ms=float(payload.get("latency_ms", 0.0)),
            batch_size=int(payload.get("batch_size", 1)),
            error=payload.get("error"),
        )
