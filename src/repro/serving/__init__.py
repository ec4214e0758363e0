"""Batched policy serving: the compile service front door.

The subsystem that turns a trained policy into a request-scale
optimization server (the ROADMAP's millions-of-users direction):

* :class:`CompileService` — admission queue, micro-batching with
  in-flight deduplication, one shared-trunk ``act_batch`` forward per
  tick, and a three-tier answer path (warm store / frontend memo / cold).
* :class:`CompileServer` / :class:`TCPClient` — the TCP front end and its
  pipelining client, over the shared transport :mod:`repro.wire`.
* :class:`InProcessClient` — the zero-serialization client tests and
  benchmarks use.
* :class:`ServingStats` / :class:`ServingReport` — p50/p95/p99 latency,
  requests/s, tier hit rates; rendered by
  :func:`repro.evaluation.report.format_serving_stats_table`.
"""

from repro.serving.client import InProcessClient, TCPClient
from repro.serving.queue import AdmissionQueue, ResponseFuture
from repro.serving.schema import (
    TIER_COLD,
    TIER_FRONTEND,
    TIER_STORE,
    TIERS,
    AdmissionRejected,
    CompileRequest,
    CompileResponse,
    ServiceClosed,
    ServingError,
)
from repro.serving.server import CompileServer
from repro.serving.service import CompileService
from repro.serving.stats import ServingReport, ServingStats

__all__ = [
    "AdmissionQueue",
    "AdmissionRejected",
    "CompileRequest",
    "CompileResponse",
    "CompileServer",
    "CompileService",
    "InProcessClient",
    "ResponseFuture",
    "ServiceClosed",
    "ServingError",
    "ServingReport",
    "ServingStats",
    "TCPClient",
    "TIER_COLD",
    "TIER_FRONTEND",
    "TIER_STORE",
    "TIERS",
]
