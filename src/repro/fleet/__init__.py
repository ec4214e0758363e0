"""Fleet evaluation: multi-host sharded reward measurement.

The fleet extends :class:`repro.distributed.EvaluationService`'s sharding
across machines: :class:`FleetWorker` daemons serve measurements over the
shared transport :mod:`repro.wire`, a :class:`FleetCoordinator` manages
connections/heartbeats/loss detection as that service's fleet backend,
and :class:`FleetEvaluationService` is the one service constructed over
it — byte-identical to serial, robust to worker death (retry, re-shard,
inline fallback), degrading gracefully to a local backend when no workers
are reachable.
:class:`~repro.fleet.prefetch.SpeculativePrefetcher` uses idle fleet
capacity to evaluate the policy's likely next actions so async rollouts
hit the cache instead of waiting.
"""

from repro.distributed.service import ServiceStats as FleetStats
from repro.fleet.coordinator import FleetCoordinator, FleetEvaluationService
from repro.fleet.prefetch import SpeculativePrefetcher
from repro.fleet.protocol import FleetError, FleetProtocolError
from repro.fleet.worker import FleetWorker, WorkerFaults

__all__ = [
    "FleetCoordinator",
    "FleetEvaluationService",
    "FleetError",
    "FleetProtocolError",
    "FleetStats",
    "FleetWorker",
    "SpeculativePrefetcher",
    "WorkerFaults",
]
