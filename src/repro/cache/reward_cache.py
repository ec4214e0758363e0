"""Shared reward/measurement cache for the RL and search hot paths.

The paper (§3.4) notes that training is only tractable because rewards for
already-seen ``(program, action)`` pairs are precomputed and looked up
instead of recompiled.  This module is that subsystem for the reproduction:

* :class:`RewardCache` — a content-keyed store of simulator measurements.
  Keys hash the kernel *source text* (plus function name and bindings) and
  the machine description, so two kernels with identical code share entries
  and editing a kernel or changing the machine model invalidates nothing it
  shouldn't.  Every agent and environment in a run can share one instance.
  Handed a :class:`repro.distributed.store.PersistentRewardStore`, it
  preloads the store's records and appends every new measurement, so a
  second run over the same kernels recompiles nothing.
* :class:`EvaluationBatcher` — collects pending ``(kernel, site, action)``
  requests, deduplicates them against each other and against the cache, and
  evaluates only the unique misses in one pass.  Rollout collection and
  brute-force sweeps submit whole batches instead of compiling per step.
  :func:`evaluate_requests` runs one batch through it; reward consumers
  reach it through the serial :class:`repro.distributed.EvaluationService`
  they hold, never directly.

Since the task redesign a key's action part is a *generic tuple* tagged
with the owning :class:`repro.tasks.OptimizationTask` name — ``(vf, if)``
for vectorization, ``(tile, fuse)`` for Polly tiling — so one cache (and
one persistent store) serves every registered task without collisions.
Every entry point takes the action tuple and the owning task explicitly.

Rewards themselves are *derived* from cached measurements by each consumer
(the environment applies its own compile-time penalty rule), so one cache
serves environments with different penalty settings without cross-talk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # imported lazily to avoid package import cycles
    from repro.core.pipeline import CompileAndMeasure
    from repro.datasets.kernels import LoopKernel
    from repro.distributed.store import PersistentRewardStore
    from repro.machine.description import MachineDescription
    from repro.tasks.base import OptimizationTask


# ---------------------------------------------------------------------------
# Content fingerprints
# ---------------------------------------------------------------------------

#: Sentinel ``loop_index`` values for whole-function measurements, so the
#: baseline and every task's whole-kernel application share the same
#: content-keyed store as per-loop factor queries.  ``WHOLE_FUNCTION_PRAGMAS``
#: keys a pragma task's application by its annotated source text; the text is
#: part of the kernel fingerprint, so it never collides with the plain kernel.
WHOLE_FUNCTION_BASELINE = -1
WHOLE_FUNCTION_PRAGMAS = -2
#: Sentinel for a task's full-application measurement (every site decided at
#: once); the key's action part flattens the whole decision map.
WHOLE_FUNCTION_APPLICATION = -3

#: Task tag for whole-function measurements, which are task-independent
#: (the same ``clang -O3`` baseline serves every task on a kernel).
WHOLE_FUNCTION_TASK = "function"


def kernel_fingerprint(kernel: "LoopKernel") -> str:
    """Digest of everything that determines a kernel's measured behaviour."""
    digest = hashlib.sha1()
    digest.update(kernel.source.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(kernel.function_name.encode("utf-8"))
    for name, value in sorted(kernel.bindings.items()):
        digest.update(f"\x00{name}={value}".encode("utf-8"))
    return digest.hexdigest()


def machine_fingerprint(machine: "MachineDescription") -> str:
    """Digest of the machine model (dataclass repr covers every cost knob)."""
    return hashlib.sha1(repr(machine).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RewardKey:
    """Identity of one measurement: kernel content x machine x task action.

    ``action`` is the task-defined decision tuple and ``task`` names the
    owning optimization task, so different tasks' decisions for the same
    site never collide.  ``default_symbol_value`` is part of the identity
    because the simulator falls back to it for symbolic loop bounds missing
    from the bindings — pipelines configured differently must not share
    entries.
    """

    kernel_hash: str
    machine_hash: str
    loop_index: int
    action: Tuple[int, ...]
    task: str
    default_symbol_value: int

    def __post_init__(self):
        # Keys decoded from a store or the wire must equal (and hash like)
        # the ones built in-process, whatever int/sequence types they carry.
        object.__setattr__(self, "loop_index", int(self.loop_index))
        object.__setattr__(self, "action", tuple(int(v) for v in self.action))
        object.__setattr__(self, "task", str(self.task))
        object.__setattr__(self, "default_symbol_value", int(self.default_symbol_value))


@dataclass
class CachedMeasurement:
    """The simulator outputs a reward is derived from."""

    cycles: float
    compile_seconds: float


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`RewardCache`."""

    hits: int = 0
    misses: int = 0
    batch_deduplicated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def compiles_avoided(self) -> int:
        """Pipeline evaluations saved by cache hits and in-batch dedup."""
        return self.hits + self.batch_deduplicated

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "batch_deduplicated": float(self.batch_deduplicated),
            "hit_rate": self.hit_rate,
            "compiles_avoided": float(self.compiles_avoided),
        }


class RewardCache:
    """Content-keyed store of ``(kernel, machine, task, action)`` measurements.

    Entries are never evicted: in a training run the number of unique
    pairs is ``sites x actions``, small next to the number of steps.  With
    a ``store`` the cache starts from every record on disk (``preloaded``
    counts them) and appends each new or changed measurement to it;
    :meth:`close` closes the store.
    """

    def __init__(self, store: Optional["PersistentRewardStore"] = None):
        self.store = store
        self.stats = CacheStats()
        self._entries: Dict[RewardKey, CachedMeasurement] = (
            {} if store is None else store.load()
        )
        self.preloaded = len(self._entries)
        # Fingerprints are memoised per object identity.  The memo stores the
        # object itself so the id() keys cannot be recycled by a later
        # allocation, and every field the fingerprint hashes is re-checked
        # on each lookup (a kernel edited in place re-hashes).
        self._kernel_fingerprints: Dict[
            int, Tuple["LoopKernel", str, str, Dict[str, int], str]
        ] = {}
        self._machine_fingerprints: Dict[int, Tuple["MachineDescription", str]] = {}

    #: Entry cap for the fingerprint memos (they pin their objects alive).
    MAX_FINGERPRINT_MEMO = 4096

    def __len__(self) -> int:
        return len(self._entries)

    # -- keys ---------------------------------------------------------------

    def _fingerprints(
        self, kernel: "LoopKernel", machine: "MachineDescription"
    ) -> Tuple[str, str]:
        kernel_memo = self._kernel_fingerprints.get(id(kernel))
        if (
            kernel_memo is not None
            and kernel_memo[0] is kernel
            and kernel_memo[1:4]
            == (kernel.source, kernel.function_name, kernel.bindings)
        ):
            kernel_hash = kernel_memo[4]
        else:
            kernel_hash = kernel_fingerprint(kernel)
            if len(self._kernel_fingerprints) >= self.MAX_FINGERPRINT_MEMO:
                self._kernel_fingerprints.clear()
            self._kernel_fingerprints[id(kernel)] = (
                kernel,
                kernel.source,
                kernel.function_name,
                dict(kernel.bindings),
                kernel_hash,
            )
        machine_memo = self._machine_fingerprints.get(id(machine))
        if machine_memo is not None and machine_memo[0] is machine:
            machine_hash = machine_memo[1]
        else:
            machine_hash = machine_fingerprint(machine)
            if len(self._machine_fingerprints) >= self.MAX_FINGERPRINT_MEMO:
                self._machine_fingerprints.clear()
            self._machine_fingerprints[id(machine)] = (machine, machine_hash)
        return kernel_hash, machine_hash

    def key_for(
        self,
        kernel: "LoopKernel",
        machine: "MachineDescription",
        loop_index: int,
        action: Tuple[int, ...],
        task: str,
        default_symbol_value: int = 256,
    ) -> RewardKey:
        """Build the cache key for one measurement of ``task``'s ``action``.

        Nothing here checks ``action`` against the task's menus: the
        batcher and the evaluation service canonicalize it through
        ``task.cache_key`` before they build a key.
        """
        kernel_hash, machine_hash = self._fingerprints(kernel, machine)
        return RewardKey(
            kernel_hash, machine_hash, loop_index, action, task, default_symbol_value
        )

    def site_key(
        self,
        pipeline: "CompileAndMeasure",
        task: "OptimizationTask",
        kernel: "LoopKernel",
        site_index: int,
        action: Tuple[int, ...],
    ) -> RewardKey:
        """The key of one (``task.cache_key``-canonical) action of ``task``
        at one site, as measured by ``pipeline``."""
        return self.key_for(
            kernel,
            pipeline.machine,
            site_index,
            default_symbol_value=pipeline.default_symbol_value,
            action=action,
            task=task.name,
        )

    def application_key(
        self,
        pipeline: "CompileAndMeasure",
        task: "OptimizationTask",
        kernel: "LoopKernel",
        decisions,
    ) -> RewardKey:
        """The key of one whole-kernel application of ``task``.

        The action part flattens the whole ``{site: action}`` map, sorted
        by site, as ``site, *action`` runs — the one place that store
        format is spelled out.
        """
        flattened: List[int] = []
        for site_index in sorted(decisions):
            flattened.append(int(site_index))
            flattened.extend(int(value) for value in decisions[site_index])
        return self.site_key(
            pipeline, task, kernel, WHOLE_FUNCTION_APPLICATION, tuple(flattened)
        )

    def annotated_source_key(
        self, pipeline: "CompileAndMeasure", kernel: "LoopKernel", source: str
    ) -> RewardKey:
        """The key of a whole-kernel measurement of ``kernel`` rewritten to
        the pragma-annotated ``source``: the annotated text is keyed as its
        own kernel content, so every distinct pragma assignment gets its own
        entry, whichever task wrote it."""
        return self.key_for(
            kernel.with_source(source),
            pipeline.machine,
            WHOLE_FUNCTION_PRAGMAS,
            default_symbol_value=pipeline.default_symbol_value,
            action=(0, 0),
            task=WHOLE_FUNCTION_TASK,
        )

    # -- lookups ------------------------------------------------------------

    def get(self, key: RewardKey) -> Optional[CachedMeasurement]:
        """Stats-counting lookup."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def peek(self, key: RewardKey) -> Optional[CachedMeasurement]:
        """Lookup without touching the hit/miss counters."""
        return self._entries.get(key)

    def put(self, key: RewardKey, measurement: CachedMeasurement) -> None:
        existing = self._entries.get(key)
        self._entries[key] = measurement
        if self.store is not None and existing != measurement:
            self.store.append(key, measurement)

    def items(self) -> List[Tuple[RewardKey, CachedMeasurement]]:
        """Snapshot of every ``(key, measurement)`` entry, insertion-ordered.

        The shipping surface of the distributed apply fan-out: a worker
        runs an application against a fresh local cache and sends exactly
        these entries back to the parent.
        """
        return list(self._entries.items())

    def merge(self, entries) -> None:
        """Adopt ``(key, measurement)`` entries measured elsewhere.

        peek() not get(): merging shipped entries is plumbing, not a
        lookup.  Already-present keys keep their entry, so the store never
        records a second value for them.
        """
        for key, measurement in entries:
            if self.peek(key) is None:
                self.put(key, measurement)

    def clear(self) -> None:
        self._entries.clear()
        self._kernel_fingerprints.clear()
        self._machine_fingerprints.clear()

    def close(self) -> None:
        """Close the store's open segment, if there is one (a later
        ``put`` reopens it)."""
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "RewardCache":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- measurement --------------------------------------------------------

    def _measure_cached(self, key: RewardKey, compute) -> Tuple[CachedMeasurement, bool]:
        """Shared lookup-or-compute step; returns (measurement, was_hit)."""
        entry = self.get(key)
        if entry is not None:
            return entry, True
        result = compute()
        entry = CachedMeasurement(
            cycles=result.cycles, compile_seconds=result.compile_seconds
        )
        self.put(key, entry)
        return entry, False

    def measure_application(self, key: RewardKey, compute) -> Tuple[CachedMeasurement, bool]:
        """Cached measurement of one whole-kernel task application.

        ``key`` is the task's own :meth:`OptimizationTask.application_key`
        and ``compute`` its transform-and-measure, run only on a miss, so a
        repeat run applying identical decisions to an unchanged kernel is a
        lookup, not a simulation.
        """
        return self._measure_cached(key, compute)

    def measure_baseline(
        self, pipeline: "CompileAndMeasure", kernel: "LoopKernel"
    ) -> Tuple[CachedMeasurement, bool]:
        """Cached whole-function baseline (``clang -O3``) measurement."""
        key = self.key_for(
            kernel,
            pipeline.machine,
            WHOLE_FUNCTION_BASELINE,
            default_symbol_value=pipeline.default_symbol_value,
            action=(0, 0),
            task=WHOLE_FUNCTION_TASK,
        )
        return self._measure_cached(key, lambda: pipeline.measure_baseline(kernel))


@dataclass
class _PendingRequest:
    key: RewardKey
    kernel: "LoopKernel"
    site_index: int
    action: Tuple[int, ...]


@dataclass
class BatchOutcome:
    """Per-request result of one :meth:`EvaluationBatcher.flush`."""

    measurement: CachedMeasurement
    was_cached: bool


def normalize_requests(requests) -> List[Tuple["LoopKernel", int, Tuple[int, ...]]]:
    """Check reward requests are ``(kernel, site_index, action)`` triples.

    The one accepted shape; anything else — wrong arity, a scalar action —
    is a :class:`ValueError` naming it, never a bare unpacking error.
    """
    normalized = []
    for position, request in enumerate(requests):
        try:
            kernel, site_index, action = request
            normalized.append(
                (kernel, int(site_index), tuple(int(value) for value in action))
            )
        except (TypeError, ValueError):
            # Not repr(request): a kernel's repr is its whole source text.
            rest = request[1:] if isinstance(request, (tuple, list)) else type(request).__name__
            raise ValueError(
                "a reward request is a (kernel, site_index, action) triple "
                f"whose action is a sequence of ints; request #{position} "
                f"carries {rest!r} after the kernel"
            ) from None
    return normalized


class EvaluationBatcher:
    """Deduplicating batch front-end over a :class:`RewardCache`.

    ``add_action`` enqueues a request and returns a ticket; ``flush``
    evaluates the unique cache misses (one pipeline call each, through the
    configured task), fills the cache, and returns outcomes indexed by
    ticket.  Duplicate requests within a batch cost one evaluation total and
    are counted in ``cache.stats.batch_deduplicated``.
    """

    def __init__(
        self,
        pipeline: "CompileAndMeasure",
        cache: RewardCache,
        task: Optional["OptimizationTask"] = None,
    ):
        from repro.tasks import resolve_task  # lazy: repro.tasks imports this package

        self.pipeline = pipeline
        self.cache = cache
        self.task = resolve_task(task)
        self._pending: List[_PendingRequest] = []

    def __len__(self) -> int:
        return len(self._pending)

    def add_action(
        self, kernel: "LoopKernel", site_index: int, action: Tuple[int, ...]
    ) -> int:
        action = self.task.cache_key(action)
        key = self.cache.site_key(self.pipeline, self.task, kernel, site_index, action)
        self._pending.append(_PendingRequest(key, kernel, int(site_index), action))
        return len(self._pending) - 1

    def flush(self) -> List[BatchOutcome]:
        pending, self._pending = self._pending, []
        first_seen: Dict[RewardKey, int] = {}
        outcomes: List[Optional[BatchOutcome]] = [None] * len(pending)
        for ticket, request in enumerate(pending):
            cached = self.cache.get(request.key)
            if cached is not None:
                outcomes[ticket] = BatchOutcome(cached, True)
                continue
            leader = first_seen.setdefault(request.key, ticket)
            if leader != ticket:
                # A duplicate of an earlier miss in this same batch: the
                # get() above already counted a miss, correct it to a dedup.
                self.cache.stats.misses -= 1
                self.cache.stats.batch_deduplicated += 1
                continue
        for key, leader in first_seen.items():
            request = pending[leader]
            result = self.task.evaluate(
                self.pipeline, request.kernel, request.site_index, request.action
            )
            self.cache.put(
                key,
                CachedMeasurement(
                    cycles=result.cycles, compile_seconds=result.compile_seconds
                ),
            )
        for ticket, request in enumerate(pending):
            if outcomes[ticket] is None:
                outcomes[ticket] = BatchOutcome(
                    self.cache.peek(request.key), first_seen.get(request.key) != ticket
                )
        return outcomes  # type: ignore[return-value]


def evaluate_requests(
    pipeline: "CompileAndMeasure",
    cache: RewardCache,
    requests,
    task: Optional["OptimizationTask"] = None,
) -> List[BatchOutcome]:
    """Evaluate ``(kernel, site_index, action)`` requests serially through
    one :class:`EvaluationBatcher` (``task`` defaults to vectorization).

    The in-process evaluator behind a serial
    :class:`repro.distributed.EvaluationService`, which is how every
    reward consumer reaches it."""
    batcher = EvaluationBatcher(pipeline, cache, task=task)
    for kernel, site_index, action in normalize_requests(requests):
        batcher.add_action(kernel, site_index, action)
    return batcher.flush()
