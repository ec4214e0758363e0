"""Action-space encodings over task-defined factor menus.

Figure 6 of the paper compares three encodings for the (VF, IF) decision:

1. **discrete** — the agent picks one integer per factor, indexing arrays of
   possible values (this performed best),
2. **continuous, one value** — a single real number encodes the whole factor
   tuple,
3. **continuous, N values** — one real number per factor, rounded to the
   nearest valid index.

Since the task redesign the spaces are generic over *menus*: an ordered
tuple of factor menus, one per decision dimension.  The defaults reproduce
the paper's (VF, IF) pair; an :class:`repro.tasks.OptimizationTask` supplies
its own menus (e.g. tile sizes x fusion flags for Polly tiling) and gets the
same three encodings for free.

**Rounding ties.**  Both continuous encodings round a real number to a menu
index, and :meth:`ActionSpace.encode` rounds a factor value to the nearest
menu entry.  At exact midpoints (the 1/2, 2/4, ... boundaries) the tie-break
is pinned: round toward the *smaller* factor.  ``_round_half_down`` makes
decode ties explicit (``round`` would banker's-round half the boundaries
up), and ``_nearest_index`` keeps the first — for the ascending menus used
everywhere, smaller — value on equidistant targets.
"""

from __future__ import annotations

import math
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: VF/IF menus used throughout the paper: powers of two, as in Equation (3).
DEFAULT_VF_VALUES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_IF_VALUES: Tuple[int, ...] = (1, 2, 4, 8, 16)


def _round_half_down(value: float) -> int:
    """Round to the nearest integer; exact .5 midpoints round *down*.

    This is the pinned tie-break for continuous action decoding: a policy
    output landing exactly between two menu indices resolves to the smaller
    factor, deterministically, on every platform.
    """
    return int(math.ceil(value - 0.5))


class ActionSpace:
    """Base class: maps raw policy outputs to a tuple of concrete factors.

    ``menus`` is one tuple of legal values per decision dimension, in
    decision order; the default two menus are the paper's VF and IF lists.
    An action is always one tuple with one value per menu.
    """

    def __init__(self, menus: Optional[Sequence[Sequence[int]]] = None):
        if menus is None:
            menus = (DEFAULT_VF_VALUES, DEFAULT_IF_VALUES)
        self.menus: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(value) for value in menu) for menu in menus
        )
        if not self.menus or any(not menu for menu in self.menus):
            raise ValueError("every action dimension needs a non-empty menu")

    # -- structure ----------------------------------------------------------

    @property
    def dims(self) -> int:
        return len(self.menus)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(menu) for menu in self.menus)

    @property
    def num_actions(self) -> int:
        total = 1
        for menu in self.menus:
            total *= len(menu)
        return total

    def all_actions(self) -> List[Tuple[int, ...]]:
        """Every concrete action tuple, first menu varying slowest."""
        return list(product(*self.menus))

    # -- codec --------------------------------------------------------------

    def decode(self, action) -> Tuple[int, ...]:  # pragma: no cover - abstract
        raise NotImplementedError

    def encode(self, action: Sequence[int]):  # pragma: no cover - abstract
        raise NotImplementedError

    def _nearest_indices(self, action: Sequence[int]) -> Tuple[int, ...]:
        """The menu index nearest to each component of ``action``."""
        if len(action) != self.dims:
            raise ValueError(
                f"expected {self.dims} factor value(s) to encode, got {len(action)}"
            )
        return tuple(
            self._nearest_index(menu, int(value))
            for menu, value in zip(self.menus, action)
        )

    def flatten_action(self, action: Sequence[int]) -> int:
        """Mixed-radix index of the action nearest to ``action``.

        The index enumerates :meth:`all_actions` order (first menu varying
        slowest); each component rounds to its menu with the pinned
        :meth:`_nearest_index` tie-break.
        """
        flat_index = 0
        for menu, index in zip(self.menus, self._nearest_indices(action)):
            flat_index = flat_index * len(menu) + index
        return flat_index

    def unflatten_action(self, flat_index: int) -> Tuple[int, ...]:
        """The concrete action tuple at one :meth:`all_actions` index."""
        flat_index = min(max(int(flat_index), 0), self.num_actions - 1)
        indices = []
        for menu in reversed(self.menus):
            flat_index, index = divmod(flat_index, len(menu))
            indices.append(index)
        indices.reverse()
        return tuple(menu[index] for menu, index in zip(self.menus, indices))

    def _nearest_index(self, values: Sequence[int], target: int) -> int:
        """Index of the menu entry closest to ``target``.

        Tie-break (pinned): on an exactly equidistant target the *first*
        match wins, which for the ascending menus used throughout means the
        smaller factor (encoding VF 3 maps to VF 2, not VF 4).
        """
        best_index, best_distance = 0, float("inf")
        for index, value in enumerate(values):
            distance = abs(value - target)
            if distance < best_distance:
                best_index, best_distance = index, distance
        return best_index


class DiscreteFactorSpace(ActionSpace):
    """One categorical choice per decision dimension (an index per menu)."""

    def decode(self, action) -> Tuple[int, ...]:
        raw = np.asarray(action).reshape(-1)
        factors = []
        for dimension, menu in enumerate(self.menus):
            index = int(raw[min(dimension, raw.size - 1)])
            index = min(max(index, 0), len(menu) - 1)
            factors.append(menu[index])
        return tuple(factors)

    def encode(self, action: Sequence[int]) -> Tuple[int, ...]:
        return self._nearest_indices(action)


class ContinuousJointSpace(ActionSpace):
    """A single real number in [0, 1] encoding the flattened action grid."""

    def decode(self, action) -> Tuple[int, ...]:
        value = float(np.asarray(action).reshape(-1)[0])
        value = min(max(value, 0.0), 1.0)
        return self.unflatten_action(
            _round_half_down(value * max(self.num_actions - 1, 1))
        )

    def encode(self, action: Sequence[int]) -> np.ndarray:
        return np.array(
            [self.flatten_action(action) / max(self.num_actions - 1, 1)]
        )


class ContinuousPairSpace(ActionSpace):
    """One real number in [0, 1] per dimension, rounded to the menus."""

    def decode(self, action) -> Tuple[int, ...]:
        values = np.asarray(action, dtype=np.float64).reshape(-1)
        factors = []
        for dimension, menu in enumerate(self.menus):
            raw = min(max(float(values[min(dimension, values.size - 1)]), 0.0), 1.0)
            index = _round_half_down(raw * (len(menu) - 1))
            factors.append(menu[index])
        return tuple(factors)

    def encode(self, action: Sequence[int]) -> np.ndarray:
        return np.array(
            [
                index / max(len(menu) - 1, 1)
                for menu, index in zip(self.menus, self._nearest_indices(action))
            ]
        )


_SPACE_KINDS = {
    "discrete": DiscreteFactorSpace,
    "continuous1": ContinuousJointSpace,
    "continuous2": ContinuousPairSpace,
}


def make_action_space(
    kind: str, menus: Optional[Sequence[Sequence[int]]] = None
) -> ActionSpace:
    """Build one of the three Figure-6 encodings over the given menus."""
    try:
        space_class = _SPACE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown action-space kind {kind!r}; expected one of "
            f"{sorted(_SPACE_KINDS)}"
        ) from None
    return space_class(menus=menus)


def default_action_space() -> DiscreteFactorSpace:
    """The discrete (VF, IF) encoding the paper settles on."""
    return DiscreteFactorSpace()
