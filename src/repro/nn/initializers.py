"""Weight initialisers."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def xavier_init(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Glorot/Xavier uniform initialisation (good default for tanh nets)."""
    fan_in = shape[0] if len(shape) > 1 else shape[0]
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal_init(
    rng: np.random.Generator, shape: Tuple[int, ...], scale: float = 0.01
) -> np.ndarray:
    return rng.normal(0.0, scale, size=shape)


def zeros_init(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)
