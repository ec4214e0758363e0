"""Disk persistence for reward measurements: cross-run cache reuse.

The in-memory :class:`repro.cache.RewardCache` dies with its process; a
:class:`PersistentRewardStore` handed to it (``RewardCache(store)``) is its
durable backing, so a second run over the same kernels recompiles nothing
at all.  The cache preloads the store on construction and appends every
new measurement, which keeps the disk layer transparent to every consumer
of the cache API.

The store is an append-only directory of JSONL *segment* files.  Every
writer appends to its **own** segment (named with its pid plus a random
token), so concurrent runs sharing one ``cache_dir`` merge on load instead
of clobbering each other.  Segments carry a schema header; loading
tolerates truncated tails and corrupt lines (a crash mid-append loses at
most the final record) and skips whole segments written by a newer
incompatible schema.  :meth:`PersistentRewardStore.compact` merges a
directory's segments into one, as an explicit offline step.

Records are keyed by the same content fingerprints as the in-memory cache
(kernel source hash x machine hash x loop x factors), so a store is safely
shareable between machines as long as the simulator is deterministic.
"""

from __future__ import annotations

import io
import json
import os
import uuid
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.cache.reward_cache import CachedMeasurement, RewardKey

#: Bump when the record layout changes incompatibly.  Loaders skip segments
#: whose header declares any version not in ``_COMPATIBLE_VERSIONS`` —
#: newer *or* older — so a stale store is detected and rebuilt rather than
#: silently mis-hit.  Version 2 (the task redesign) replaced the fixed
#: ``vf``/``interleave`` key columns with a task name plus a generic action
#: tuple; version-1 segments written by pre-redesign builds carry keys that
#: can no longer be attributed to a task and are skipped wholesale.
SCHEMA_NAME = "repro-reward-store"
SCHEMA_VERSION = 2
_COMPATIBLE_VERSIONS = (2,)


@dataclass
class StoreStats:
    """Load/append accounting for one :class:`PersistentRewardStore`."""

    segments_loaded: int = 0
    segments_skipped: int = 0
    records_loaded: int = 0
    corrupt_records: int = 0
    appended: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "segments_loaded": float(self.segments_loaded),
            "segments_skipped": float(self.segments_skipped),
            "records_loaded": float(self.records_loaded),
            "corrupt_records": float(self.corrupt_records),
            "appended": float(self.appended),
        }


def _encode_record(key: RewardKey, measurement: CachedMeasurement) -> str:
    return json.dumps(
        {
            "key": [
                key.kernel_hash,
                key.machine_hash,
                key.loop_index,
                key.task,
                list(key.action),
                key.default_symbol_value,
            ],
            "cycles": measurement.cycles,
            "compile_seconds": measurement.compile_seconds,
        },
        separators=(",", ":"),
    )


def _decode_record(line: str) -> Optional[tuple]:
    """Parse one record line; ``None`` means corrupt/unusable."""
    record = json.loads(line)
    raw_key = record["key"]
    if not isinstance(raw_key, list) or len(raw_key) != 6:
        return None
    if not isinstance(raw_key[4], list):
        return None
    key = RewardKey(
        kernel_hash=str(raw_key[0]),
        machine_hash=str(raw_key[1]),
        loop_index=int(raw_key[2]),
        task=str(raw_key[3]),
        action=tuple(int(value) for value in raw_key[4]),
        default_symbol_value=int(raw_key[5]),
    )
    measurement = CachedMeasurement(
        cycles=float(record["cycles"]),
        compile_seconds=float(record["compile_seconds"]),
    )
    return key, measurement


class PersistentRewardStore:
    """Append-only, merge-on-load JSONL store of reward measurements.

    Every appended record is flushed to the OS at once.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.stats = StoreStats()
        os.makedirs(self.directory, exist_ok=True)
        # This writer's private segment; created lazily on first append so
        # read-only consumers never litter the directory with empty files.
        self._segment_name = f"segment-{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
        self._handle: Optional[io.TextIOWrapper] = None

    # -- paths -------------------------------------------------------------

    @property
    def segment_path(self) -> str:
        """Where this writer's appends go (may not exist yet)."""
        return os.path.join(self.directory, self._segment_name)

    def segment_paths(self) -> List[str]:
        """Every segment currently on disk, oldest name first."""
        try:
            names = sorted(
                name
                for name in os.listdir(self.directory)
                if name.endswith(".jsonl")
            )
        except FileNotFoundError:
            return []
        return [os.path.join(self.directory, name) for name in names]

    # -- loading -----------------------------------------------------------

    def load(self) -> Dict[RewardKey, CachedMeasurement]:
        """Merge every on-disk segment into one key → measurement mapping.

        Within a segment, later records for the same key win.  Across
        segments the merge order is the (deterministic) filename sort, which
        is *not* chronological — cross-segment conflicts can only arise if
        the simulator changed between runs, and then the store should be
        compacted or cleared rather than trusted to pick a winner.
        Corrupt lines — including the truncated tail a crash mid-append
        leaves behind — are counted and skipped, never fatal.
        """
        merged: Dict[RewardKey, CachedMeasurement] = {}
        for path in self.segment_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    lines = handle.read().splitlines()
            except OSError:
                self.stats.segments_skipped += 1
                continue
            if not self._header_compatible(lines[0] if lines else ""):
                self.stats.segments_skipped += 1
                continue
            self.stats.segments_loaded += 1
            for line in lines[1:]:
                if not line.strip():
                    continue
                try:
                    decoded = _decode_record(line)
                except (ValueError, KeyError, TypeError):
                    decoded = None
                if decoded is None:
                    self.stats.corrupt_records += 1
                    continue
                key, measurement = decoded
                merged[key] = measurement
                self.stats.records_loaded += 1
        return merged

    @staticmethod
    def _header_compatible(line: str) -> bool:
        try:
            header = json.loads(line)
        except ValueError:
            return False
        return (
            isinstance(header, dict)
            and header.get("schema") == SCHEMA_NAME
            and header.get("version") in _COMPATIBLE_VERSIONS
        )

    # -- writing -----------------------------------------------------------

    def append(self, key: RewardKey, measurement: CachedMeasurement) -> None:
        """Durably record one measurement in this writer's segment."""
        if self._handle is None:
            self._handle = open(self.segment_path, "a", encoding="utf-8")
            if self._handle.tell() == 0:
                self._handle.write(
                    json.dumps({"schema": SCHEMA_NAME, "version": SCHEMA_VERSION})
                    + "\n"
                )
        self._handle.write(_encode_record(key, measurement) + "\n")
        self.stats.appended += 1
        self._handle.flush()

    def sync(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "PersistentRewardStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- maintenance -------------------------------------------------------

    def compact(self) -> int:
        """Merge all segments into one and delete the originals.

        Returns the number of records in the compacted segment.

        **Offline maintenance only**: run it when no other process is
        writing to this directory.  A concurrent writer whose segment
        predates the compaction would keep appending to the unlinked file
        and lose those records; segments *created after* compaction starts
        are the only ones guaranteed to survive.
        """
        self.close()
        before = self.segment_paths()
        # load() is reused for the merge but its bookkeeping describes
        # warm-starts, not maintenance — keep the stats unchanged.
        stats_snapshot = replace(self.stats)
        merged = self.load()
        self.stats = stats_snapshot
        compact_name = f"segment-compact-{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
        compact_path = os.path.join(self.directory, compact_name)
        temporary = compact_path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}) + "\n"
            )
            for key, measurement in merged.items():
                handle.write(_encode_record(key, measurement) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, compact_path)
        for path in before:
            if path != compact_path:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        return len(merged)
