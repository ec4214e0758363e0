"""Seed-stable train/test kernel splits for generalization evaluation.

The paper's core claim is that one learned policy transfers to kernels it
never trained on; proving that requires a split whose membership cannot
drift between the training process and the evaluation process.  Ranking
kernels by ``sha256(f"{seed}|{name}")`` gives exactly that: the same seed
and kernel names produce the same split in every process, interpreter and
``PYTHONHASHSEED`` (unlike the built-in ``hash``), and changing the seed
reshuffles the assignment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple


def _kernel_name(kernel) -> str:
    """A kernel's name — entries may be kernel objects or bare name strings."""
    return kernel if isinstance(kernel, str) else kernel.name


def _rank(seed: int, name: str) -> str:
    """The kernel's process-stable sort key within one seed's shuffle."""
    return hashlib.sha256(f"{seed}|{name}".encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class KernelSplit:
    """A disjoint train/test partition of a kernel suite, by kernel name.

    Immutable and name-based so it can be recorded by a training run,
    passed between processes, and re-applied to the same suite later; the
    constructor rejects overlap and duplicates so no split with leakage
    can exist.
    """

    train: Tuple[str, ...]
    test: Tuple[str, ...]
    seed: int = 0

    def __post_init__(self):
        train = tuple(str(name) for name in self.train)
        test = tuple(str(name) for name in self.test)
        object.__setattr__(self, "train", train)
        object.__setattr__(self, "test", test)
        if not train:
            raise ValueError("a kernel split needs at least one training kernel")
        if not test:
            raise ValueError("a kernel split needs at least one held-out kernel")
        if len(set(train)) != len(train) or len(set(test)) != len(test):
            raise ValueError("kernel split contains duplicate kernel names")
        overlap = set(train) & set(test)
        if overlap:
            raise ValueError(
                f"kernel split leaks: {sorted(overlap)} appear in both the "
                "train and test sides"
            )

    @property
    def names(self) -> Tuple[str, ...]:
        """Every kernel name the split covers (train then test)."""
        return self.train + self.test

    def partition(self, kernels: Sequence) -> Tuple[List, List]:
        """Split ``kernels`` into (train, test) lists, preserving order.

        Every kernel must belong to one side — a kernel the split never
        assigned would otherwise silently vanish from the comparison.
        """
        train_side, test_side = [], []
        train_names, test_names = set(self.train), set(self.test)
        unknown = []
        for kernel in kernels:
            name = _kernel_name(kernel)
            if name in train_names:
                train_side.append(kernel)
            elif name in test_names:
                test_side.append(kernel)
            else:
                unknown.append(name)
        if unknown:
            raise ValueError(
                f"kernels {unknown} are not covered by this split "
                f"(train: {list(self.train)}, test: {list(self.test)})"
            )
        return train_side, test_side

    def assert_no_leakage(self, training_kernel_names: Sequence[str]) -> None:
        """Reject a run whose training kernels overlap this split's test side.

        A generalization matrix computed over kernels the policy trained
        on would present memorization as transfer; fail loudly instead.
        """
        overlap = set(self.test) & {str(name) for name in training_kernel_names}
        if overlap:
            raise ValueError(
                f"held-out kernels {sorted(overlap)} overlap the run's "
                "training kernels; the test side of a generalization "
                "matrix must be disjoint from what the policy trained on"
            )

    @classmethod
    def from_holdout(
        cls, kernels: Sequence, test_names: Sequence[str], seed: int = 0
    ) -> "KernelSplit":
        """A split with an explicitly named test side over ``kernels``."""
        names = [_kernel_name(kernel) for kernel in kernels]
        if len(set(names)) != len(names):
            raise ValueError("kernel suite contains duplicate names; cannot split")
        held_out = {str(name) for name in test_names}
        missing = held_out - set(names)
        if missing:
            raise ValueError(
                f"holdout kernels {sorted(missing)} are not in the suite "
                f"({names})"
            )
        return cls(
            train=tuple(name for name in names if name not in held_out),
            test=tuple(name for name in names if name in held_out),
            seed=seed,
        )


def split_kernels(
    kernels: Sequence, test_fraction: float = 0.25, seed: int = 0
) -> KernelSplit:
    """Partition a kernel suite into a seed-stable train/test split.

    Kernels are ranked by ``sha256(f"{seed}|{name}")`` and the first
    ``test_fraction`` of the ranking is held out (at least one kernel on
    each side), so the split depends only on the seed and the kernel
    names — identical across processes and interpreter restarts.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(
            f"test_fraction must be strictly between 0 and 1, got {test_fraction}"
        )
    names = [_kernel_name(kernel) for kernel in kernels]
    if len(set(names)) != len(names):
        raise ValueError("kernel suite contains duplicate names; cannot split")
    if len(names) < 2:
        raise ValueError(
            "splitting needs at least 2 kernels (one per side); "
            f"got {len(names)}"
        )
    ranked = sorted(names, key=lambda name: _rank(seed, name))
    test_count = min(len(names) - 1, max(1, int(round(test_fraction * len(names)))))
    held_out = set(ranked[:test_count])
    return KernelSplit(
        train=tuple(name for name in names if name not in held_out),
        test=tuple(name for name in names if name in held_out),
        seed=seed,
    )
