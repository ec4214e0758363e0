"""Kernel and suite containers shared by every dataset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.frontend import ast, parse_source
from repro.ir.lowering import LoweringContext, lower_function
from repro.ir.nodes import IRFunction


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

    _ast_cache: Optional[ast.TranslationUnit] = field(
        default=None, repr=False, compare=False
    )
    _ir_cache: Optional[IRFunction] = field(default=None, repr=False, compare=False)

    # -- lazy compilation helpers -----------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        if self._ast_cache is None:
            # Shares the process-wide frontend memo with the pipeline and the
            # loop extractor (same content hash → the same cached AST).
            from repro.frontend.cache import frontend_cache

            self._ast_cache = frontend_cache().parse(
                self.source, filename=f"{self.name}.c"
            )
        return self._ast_cache

    def function_ast(self) -> ast.FunctionDecl:
        unit = self.parse()
        function = unit.find_function(self.function_name)
        if function is None:
            raise ValueError(
                f"kernel {self.name!r} has no function {self.function_name!r}"
            )
        return function

    def lower(self) -> IRFunction:
        if self._ir_cache is None:
            unit = self.parse()
            function = self.function_ast()
            self._ir_cache = lower_function(
                unit, function, context=LoweringContext(bindings=dict(self.bindings))
            )
        return self._ir_cache

    def invalidate(self) -> None:
        """Drop cached ASTs/IR (used after the source text is rewritten)."""
        self._ast_cache = None
        self._ir_cache = None

    def innermost_loop_count(self) -> int:
        return len(self.lower().innermost_loops())

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
