"""Kernel and suite containers shared by every dataset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class LoopKernel:
    """One benchmark program: C source plus everything needed to run it.

    ``bindings`` give runtime values for symbolic parameters (array extents,
    trip counts) — the analogue of the harness the paper uses to execute each
    kernel with concrete inputs.
    """

    name: str
    source: str
    function_name: str
    suite: str = "synthetic"
    bindings: Dict[str, int] = field(default_factory=dict)
    description: str = ""

    def with_source(self, new_source: str) -> "LoopKernel":
        """A copy of this kernel with different source text (pragma injection)."""
        return LoopKernel(
            name=self.name,
            source=new_source,
            function_name=self.function_name,
            suite=self.suite,
            bindings=dict(self.bindings),
            description=self.description,
        )


@dataclass
class KernelSuite:
    """A named collection of kernels."""

    name: str
    kernels: List[LoopKernel] = field(default_factory=list)

    def __iter__(self) -> Iterator[LoopKernel]:
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def __getitem__(self, index: int) -> LoopKernel:
        return self.kernels[index]

    def by_name(self, name: str) -> Optional[LoopKernel]:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        return None

    def names(self) -> List[str]:
        return [kernel.name for kernel in self.kernels]

    def add(self, kernel: LoopKernel) -> None:
        self.kernels.append(kernel)
