"""Injecting ``#pragma clang loop`` hints into C source text (Figure 4)."""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.core.loop_extractor import ExtractedLoop, extract_loops
from repro.frontend.pragmas import LoopPragma, format_pragma

_PRAGMA_LINE_RE = re.compile(r"^\s*#\s*pragma\s+clang\s+loop\b")


def strip_loop_pragmas(source: str) -> str:
    """Remove every existing ``#pragma clang loop`` line from the source.

    The injector always starts from a clean slate so that repeated calls are
    idempotent (the RL environment re-injects pragmas on every step).
    """
    lines = source.split("\n")
    kept = [line for line in lines if not _PRAGMA_LINE_RE.match(line)]
    return "\n".join(kept)


def inject_pragma_text(source: str, line_number: int, pragma: LoopPragma) -> str:
    """Insert ``pragma`` immediately before ``line_number`` (1-based).

    The pragma copies the indentation of the target line so the result looks
    like the hand-written examples in the paper.
    """
    lines = source.split("\n")
    index = max(0, min(len(lines), line_number - 1))
    target = lines[index] if index < len(lines) else ""
    indent = target[: len(target) - len(target.lstrip())]
    lines.insert(index, indent + format_pragma(pragma))
    return "\n".join(lines)


def inject_loop_pragmas(
    source: str,
    pragmas: Dict[int, LoopPragma],
    function_name: Optional[str] = None,
) -> str:
    """Inject one arbitrary :class:`LoopPragma` per innermost loop.

    ``pragmas`` maps the loop index (as produced by
    :func:`repro.core.loop_extractor.extract_loops`) to the directive to
    place before that loop — vectorization hints, unroll counts, or any mix.
    Loops without an entry are left untouched (the compiler's own cost model
    will handle them).  Existing clang loop pragmas are stripped first.
    """
    cleaned = strip_loop_pragmas(source)
    loops = extract_loops(cleaned, function_name=function_name)
    # Insert from the bottom of the file upwards so earlier line numbers stay
    # valid while we mutate the text.
    insertions: List[Tuple[int, LoopPragma]] = [
        (loop.source_line, pragmas[loop.loop_index])
        for loop in loops
        if loop.loop_index in pragmas
    ]
    insertions.sort(key=lambda item: item[0], reverse=True)
    result = cleaned
    for line, pragma in insertions:
        result = inject_pragma_text(result, line, pragma)
    return result


def inject_pragmas(
    source: str,
    decisions: Dict[int, Tuple[int, int]],
    function_name: Optional[str] = None,
) -> str:
    """Inject one (VF, IF) pragma per innermost loop according to
    ``decisions`` (the vectorization-task shorthand for
    :func:`inject_loop_pragmas`)."""
    return inject_loop_pragmas(
        source,
        {
            loop_index: LoopPragma(
                vectorize_width=vectorize_width, interleave_count=interleave_count
            )
            for loop_index, (vectorize_width, interleave_count) in decisions.items()
        },
        function_name=function_name,
    )
