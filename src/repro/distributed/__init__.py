"""Distributed evaluation: persistent reward store, sharded workers, futures.

The scaling layer over :mod:`repro.cache`:

* :class:`PersistentRewardStore` — reuse measurements **across runs** via
  an append-only on-disk store, held by a
  :class:`~repro.cache.RewardCache` as ``RewardCache(store)``,
* :class:`EvaluationService` — the one batched reward-query service and
  the one handle every reward consumer holds (it carries the run's
  pipeline and cache): dedup, dispatch and drain written once over a
  transport backend (none: serial in-process; a worker-process pool; the
  :mod:`repro.fleet` TCP coordinator),
* :class:`AsyncEvaluator` — future-based submission so training overlaps
  simulation with policy inference.
"""

from repro.distributed.service import (
    EvaluationFuture,
    EvaluationService,
    ServiceStats,
)
from repro.distributed.store import PersistentRewardStore, StoreStats

__all__ = [
    "EvaluationFuture",
    "EvaluationService",
    "ServiceStats",
    "PersistentRewardStore",
    "StoreStats",
]


def __getattr__(name: str):
    # AsyncEvaluator/RewardFuture pull in repro.rl lazily so importing the
    # storage layer never drags the whole RL stack along.
    if name in ("AsyncEvaluator", "RewardFuture"):
        from repro.distributed import async_api

        return getattr(async_api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
