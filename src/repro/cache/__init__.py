"""Content-keyed reward caching and batched evaluation for training loops."""

from repro.cache.reward_cache import (
    WHOLE_FUNCTION_BASELINE,
    WHOLE_FUNCTION_PRAGMAS,
    CachedMeasurement,
    CacheStats,
    EvaluationBatcher,
    RewardCache,
    RewardKey,
    evaluate_requests,
    kernel_fingerprint,
    machine_fingerprint,
    normalize_requests,
)

__all__ = [
    "evaluate_requests",
    "normalize_requests",
    "CachedMeasurement",
    "CacheStats",
    "EvaluationBatcher",
    "RewardCache",
    "RewardKey",
    "WHOLE_FUNCTION_BASELINE",
    "WHOLE_FUNCTION_PRAGMAS",
    "kernel_fingerprint",
    "machine_fingerprint",
]
