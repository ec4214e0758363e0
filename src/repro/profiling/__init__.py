"""Phase timers for the training hot paths.

A :class:`PhaseTimer` accumulates wall-clock time into named scopes.
Scopes nest: entering ``evaluate`` inside ``update`` records under the
path ``update/evaluate``, and the report table indents children under
their parents so a training step reads as a tree of where the time went.

Code that should stay import-light takes the timer as an explicit,
optional argument (the PPO trainer holds an optional ``profiler``)::

    timer = PhaseTimer()
    with timer.scope("update"):
        with timer.scope("backward"):
            ...
    print(timer.report())

Timing overhead is two ``perf_counter`` calls and a dict update per
scope; code on byte-identity-guarded paths only enters scopes when a
profiler is attached, so the unprofiled paths pay nothing.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Tuple

__all__ = ["PhaseTimer"]


class PhaseTimer:
    """Accumulates wall-clock seconds into nested, named scopes."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[str] = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def scope(self, name: str) -> Iterator["PhaseTimer"]:
        """Time a scope; nested scopes record under ``parent/child`` paths."""
        path = "/".join(self._stack + [str(name)])
        self._stack.append(str(name))
        started = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self.totals[path] = self.totals.get(path, 0.0) + elapsed
            self.counts[path] = self.counts.get(path, 0) + 1

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record pre-measured time (for code that cannot hold a scope open)."""
        path = "/".join(self._stack + [str(name)])
        self.totals[path] = self.totals.get(path, 0.0) + float(seconds)
        self.counts[path] = self.counts.get(path, 0) + int(count)

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()

    # -- reading -------------------------------------------------------------

    def seconds(self, path: str) -> float:
        """Total seconds recorded under ``path`` (0.0 when never entered)."""
        return self.totals.get(path, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """A flat ``path -> seconds`` mapping (stable insertion order)."""
        return dict(self.totals)

    def _rows(self) -> List[Tuple[str, float, int]]:
        return [
            (path, self.totals[path], self.counts.get(path, 0))
            for path in sorted(self.totals)
        ]

    def report(self, title: str = "phase timings") -> str:
        """A per-run report table: one row per scope path, children
        indented under their parents, with totals, call counts, and each
        scope's share of its root phase."""
        rows = self._rows()
        if not rows:
            return f"{title}: (no scopes recorded)"
        roots: Dict[str, float] = {}
        for path, seconds, _ in rows:
            root = path.split("/", 1)[0]
            if "/" not in path:
                roots[root] = seconds
        rendered: List[Tuple[str, str, str, str]] = []
        for path, seconds, count in rows:
            depth = path.count("/")
            label = "  " * depth + path.rsplit("/", 1)[-1]
            root_total = roots.get(path.split("/", 1)[0], 0.0)
            share = f"{100.0 * seconds / root_total:5.1f}%" if root_total > 0 else "    —"
            rendered.append((label, f"{seconds:.6f}", str(count), share))
        headers = ("phase", "seconds", "calls", "share")
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rendered))
            for i in range(4)
        ]
        lines = [title]
        lines.append(
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in rendered:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(4)))
        return "\n".join(lines)
