"""Shared helpers for the fleet-evaluation tests (repro.fleet).

The fault-injection story lives here: :class:`repro.fleet.worker.WorkerFaults`
lets a test arm a worker to die mid-batch (``die_after``), go silent while
staying connected (``drop_heartbeats_after``) or tear its coordinator
connection abruptly (``tear_after``); :func:`start_workers` /
:func:`fleet_service` wrap the boilerplate of spinning localhost workers up,
dialing them and tearing everything down even when a test kills half the
fleet on purpose.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.cache.reward_cache import RewardCache
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService
from repro.fleet import FleetEvaluationService, FleetWorker, WorkerFaults

ADD_SOURCE = """
int a[256], b[256];
int add_arrays() {
    int s = 0;
    for (int i = 0; i < 256; i++) {
        s += a[i] + b[i];
    }
    return s;
}
"""

SCALE_SOURCE = """
float x[512], y[512];
void scale(float alpha) {
    for (int i = 0; i < 512; i++) {
        y[i] = alpha * x[i];
    }
}
"""


def add_kernel() -> LoopKernel:
    return LoopKernel(name="add", source=ADD_SOURCE, function_name="add_arrays")


def scale_kernel() -> LoopKernel:
    return LoopKernel(name="scale", source=SCALE_SOURCE, function_name="scale")


def grid_requests(kernel, vfs=(1, 2, 4, 8), ifs=(1, 2)):
    return [(kernel, 0, (vf, interleave)) for vf in vfs for interleave in ifs]


def task_requests(task, kernels: Sequence[LoopKernel], site: int = 0):
    """Every action in ``task``'s joint menu, for every kernel, at one site."""
    actions: List[Tuple[int, ...]] = [()]
    for menu in task.menus:
        actions = [prefix + (choice,) for prefix in actions for choice in menu]
    return [(kernel, site, action) for kernel in kernels for action in actions]


def outcome_tuples(outcomes):
    return [(o.measurement.cycles, o.measurement.compile_seconds) for o in outcomes]


def serial_outcomes(requests, task=None):
    """Ground truth: the zero-worker in-process service's answers."""
    service = EvaluationService(CompileAndMeasure(), workers=0)
    return outcome_tuples(service.evaluate(requests, task=task))


def worker_address(worker: FleetWorker) -> str:
    host, port = worker.address
    return f"{host}:{port}"


@contextmanager
def start_workers(
    count: int = 2,
    faults: Optional[Sequence[Optional[WorkerFaults]]] = None,
    store_dir: Optional[str] = None,
) -> Iterator[List[FleetWorker]]:
    """Spin up ``count`` localhost workers, stopping whatever survives."""
    faults = list(faults or [])
    faults += [None] * (count - len(faults))
    workers = [
        FleetWorker(store_dir=store_dir, faults=fault) for fault in faults[:count]
    ]
    try:
        for worker in workers:
            worker.start()
        yield workers
    finally:
        for worker in workers:
            worker.stop()


@contextmanager
def fleet_service(
    workers: Sequence[FleetWorker],
    cache: Optional[RewardCache] = None,
    **knobs,
) -> Iterator[FleetEvaluationService]:
    """Dial an already-started fleet and close the service afterwards.

    Short heartbeats by default so loss-detection tests run in seconds;
    pass ``heartbeat_timeout``/``heartbeat_interval`` to override.
    """
    knobs.setdefault("heartbeat_interval", 0.1)
    knobs.setdefault("heartbeat_timeout", 2.0)
    service = FleetEvaluationService.connect(
        CompileAndMeasure(),
        cache if cache is not None else RewardCache(),
        addresses=[worker_address(w) for w in workers],
        **knobs,
    )
    try:
        yield service
    finally:
        service.close()
