"""Process-wide content-hash memo of frontend results: one record per source text.

Every consumer of a kernel's text — :func:`repro.core.loop_extractor.extract_loops`,
:meth:`repro.datasets.kernels.LoopKernel.parse`,
:meth:`repro.core.pipeline.CompileAndMeasure.lower_kernel`, across pipelines
and agents — goes through one process-wide LRU, so a distinct text is
preprocessed, tokenized and parsed once per process, whatever filename the
caller labels it with.  An entry is a :class:`FrontendRecord`: the
``TranslationUnit`` plus the loop lists derived from it, keyed by the sha1 of
the text (the :mod:`repro.cache.reward_cache` idiom) and the ``defines`` it
was preprocessed with.  Capacity therefore counts source texts, and evicting
a text drops its loop lists with its AST:

    from repro.frontend.cache import frontend_cache
    cache = frontend_cache()
    unit = cache.parse(source_text, filename="kernel.c")
    cache.stats.as_dict()     # {"hits": ..., "misses": ..., ...}
    cache.set_capacity(1024)  # cap the number of texts (default 512)
    cache.disable()           # pass-through mode (e.g. for benchmarking)

Cached ASTs are shared read-only: the parser normalizes loop bodies during
parsing and semantic analysis annotates its own tables, so a
``TranslationUnit`` is safe to hand to any number of lowering calls.

The environment variables ``REPRO_FRONTEND_CACHE=0`` (disable) and
``REPRO_FRONTEND_CACHE_CAPACITY=<n>`` configure the process-wide instance.
They are re-read on every :func:`frontend_cache` call, and a *changed*
value is applied to the live instance — so exporting a new capacity (or
toggling the cache off) between runs in one process takes effect without a
restart.  Unchanged variables never override programmatic
:meth:`FrontendCache.set_capacity` / :meth:`FrontendCache.disable` calls.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.frontend import ast
from repro.frontend.parser import parse_source


def source_fingerprint(source: str) -> str:
    """Stable content hash of a source text (the reward-cache keying idiom)."""
    return hashlib.sha1(source.encode("utf-8")).hexdigest()


@dataclass
class FrontendCacheStats:
    """Hit/miss/eviction counters for the process-wide frontend memo."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


@dataclass
class FrontendRecord:
    """Everything the frontend has derived from one source text.

    ``loops`` holds the innermost-loop lists
    :func:`repro.core.loop_extractor.extract_loops` builds from ``unit``,
    one per ``function_name`` filter; they live and die with the AST they
    point into.
    """

    unit: ast.TranslationUnit
    loops: Dict[Optional[str], list] = field(default_factory=dict)


class FrontendCache:
    """LRU store of one :class:`FrontendRecord` per source text, process-wide.

    The key is the content hash of the text plus the ``defines`` it was
    preprocessed with.  The filename is not part of the key: it only labels
    diagnostics (``TranslationUnit.filename`` → ``IRFunction.source_name``,
    which nothing keys on), so a memoised unit carries the first caller's.
    Parse failures are not stored and carry the failing caller's filename.
    """

    def __init__(self, capacity: int = 512, enabled: bool = True):
        if capacity < 1:
            raise ValueError("frontend cache capacity must be at least 1")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self.stats = FrontendCacheStats()
        self._entries: "OrderedDict[tuple, FrontendRecord]" = OrderedDict()
        self._lock = threading.Lock()

    def record(
        self,
        source: str,
        filename: str = "<source>",
        defines: Optional[Dict[str, str]] = None,
    ) -> FrontendRecord:
        """The record of ``source``, parsing it on a miss.

        Disabled, every call parses afresh and nothing is stored.
        """
        if not self.enabled:
            return FrontendRecord(parse_source(source, filename=filename, defines=defines))
        key = (source_fingerprint(source), tuple(sorted((defines or {}).items())))
        with self._lock:
            record = self._entries.get(key)
            if record is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return record
            self.stats.misses += 1
        unit = parse_source(source, filename=filename, defines=defines)
        with self._lock:
            # Concurrent misses on one text all leave with the first record
            # stored, so they share one AST and one set of loop lists.
            record = self._entries.setdefault(key, FrontendRecord(unit))
            self._entries.move_to_end(key)
            self._evict_over_capacity()
        return record

    def parse(
        self,
        source: str,
        filename: str = "<source>",
        defines: Optional[Dict[str, str]] = None,
    ) -> ast.TranslationUnit:
        """Preprocess/tokenize/parse ``source``, memoized by content hash."""
        return self.record(source, filename=filename, defines=defines).unit

    # -- management ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self, reset_stats: bool = True) -> None:
        with self._lock:
            self._entries.clear()
            if reset_stats:
                self.stats.reset()

    def set_capacity(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("frontend cache capacity must be at least 1")
        with self._lock:
            self.capacity = int(capacity)
            self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Pass-through mode: every call recomputes, nothing is stored."""
        self.enabled = False


def _environment_settings() -> Dict[str, object]:
    """The current env-var view of the cache configuration."""
    return {
        "capacity": int(os.environ.get("REPRO_FRONTEND_CACHE_CAPACITY", "512")),
        "enabled": os.environ.get("REPRO_FRONTEND_CACHE", "1").lower()
        not in ("0", "off", "false"),
    }


def _from_environment() -> FrontendCache:
    settings = _environment_settings()
    return FrontendCache(
        capacity=settings["capacity"], enabled=settings["enabled"]
    )


_GLOBAL_CACHE: Optional[FrontendCache] = None
_GLOBAL_LOCK = threading.Lock()
#: The env settings last applied to the global instance.  Only *changes*
#: relative to this snapshot are re-applied, so an unchanged environment
#: never clobbers programmatic set_capacity()/disable() calls.
_GLOBAL_ENV: Optional[Dict[str, object]] = None


def frontend_cache() -> FrontendCache:
    """The process-wide frontend memo (created on first use).

    ``REPRO_FRONTEND_CACHE`` / ``REPRO_FRONTEND_CACHE_CAPACITY`` are
    re-read on every call; a variable whose value changed since it was
    last applied reconfigures the live instance (per field), so env
    reconfiguration works mid-process — including between ``disable()`` /
    re-enable cycles — without discarding the cache or its stats.
    """
    global _GLOBAL_CACHE, _GLOBAL_ENV
    with _GLOBAL_LOCK:
        settings = _environment_settings()
        if _GLOBAL_CACHE is None:
            _GLOBAL_CACHE = FrontendCache(
                capacity=settings["capacity"], enabled=settings["enabled"]
            )
        else:
            assert _GLOBAL_ENV is not None
            if settings["capacity"] != _GLOBAL_ENV["capacity"]:
                _GLOBAL_CACHE.set_capacity(settings["capacity"])
            if settings["enabled"] != _GLOBAL_ENV["enabled"]:
                if settings["enabled"]:
                    _GLOBAL_CACHE.enable()
                else:
                    _GLOBAL_CACHE.disable()
        _GLOBAL_ENV = settings
    return _GLOBAL_CACHE
