"""The end-to-end NeuroVectorizer framework (Figure 3 of the paper).

Pipeline: source files → loop extractor → code embedding → agent → pragma
injection → compile-and-measure → reward.  The pieces are:

* :mod:`repro.core.loop_extractor` — finds loops and their nests in C source,
* :mod:`repro.core.pragma_injector` — writes ``#pragma clang loop`` hints
  into the source text (Figure 4),
* :mod:`repro.core.pipeline` — the stand-in for "compile with clang and time
  it": parse, lower, plan the requested factors, simulate,
* :mod:`repro.core.framework` — the :class:`NeuroVectorizer` facade tying an
  embedding model and an agent together, plus its training entry point.
"""

from repro.core.loop_extractor import ExtractedLoop, LoopExtractor, extract_loops
from repro.core.pragma_injector import inject_pragmas, strip_loop_pragmas
from repro.core.pipeline import CompilationResult, CompileAndMeasure
from repro.core.framework import NeuroVectorizer

__all__ = [
    "ExtractedLoop",
    "LoopExtractor",
    "extract_loops",
    "inject_pragmas",
    "strip_loop_pragmas",
    "CompilationResult",
    "CompileAndMeasure",
    "NeuroVectorizer",
]
