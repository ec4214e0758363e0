"""Automatic loop extraction from C source (the first stage of Figure 3)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.embedding.ast_paths import PathContext, extract_path_contexts
from repro.embedding.vocab import normalize_identifiers
from repro.frontend import ast, parse_source
from repro.frontend.cache import frontend_cache
from repro.frontend.printer import print_stmt


@dataclass
class ExtractedLoop:
    """One innermost loop found in a source file, with its nest context.

    * ``ast_loop`` is the innermost loop statement (where the pragma goes —
      "the pragma is injected to the most inner loop in case of nested
      loops", §3),
    * ``nest_root`` is the outermost loop of the nest containing it — the
      text the embedding generator reads, because the paper found that
      "feeding the loop body of the most outer loop ... performed better",
    * ``source_line`` is the 1-based line of the innermost ``for`` in the
      original text, used by the pragma injector.
    """

    function_name: str
    loop_index: int
    ast_loop: ast.Stmt
    nest_root: ast.Stmt
    source_line: int
    nest_depth: int
    source_text: str = ""

    @property
    def is_nested(self) -> bool:
        return self.nest_depth > 1

    @cached_property
    def path_contexts(self) -> Tuple[PathContext, ...]:
        """The code2vec bag of ``nest_root``, identifiers normalised, at
        the default limits.

        Built on first use and kept on this object, which the frontend
        cache holds beside the AST; every consumer of the loop (vocabulary,
        pretraining, each task's observation) reads the same tuple, and it
        is freed when the source's record is evicted.
        """
        rename_map = normalize_identifiers(self.nest_root)
        return tuple(extract_path_contexts(self.nest_root, rename_map=rename_map))


class LoopExtractor:
    """Finds every innermost loop of every function in a translation unit."""

    def __init__(self, include_while_loops: bool = True):
        self.include_while_loops = include_while_loops

    def extract_from_source(
        self, source: str, filename: str = "<source>"
    ) -> List[ExtractedLoop]:
        unit = parse_source(source, filename=filename)
        return self.extract_from_unit(unit)

    def extract_from_unit(self, unit: ast.TranslationUnit) -> List[ExtractedLoop]:
        extracted: List[ExtractedLoop] = []
        for function in unit.functions:
            extracted.extend(self.extract_from_function(function))
        return extracted

    def extract_from_function(self, function: ast.FunctionDecl) -> List[ExtractedLoop]:
        if function.body is None:
            return []
        loop_types = (ast.ForStmt, ast.WhileStmt) if self.include_while_loops else (
            ast.ForStmt,
        )
        top_level: List[ast.Stmt] = [
            node
            for node in ast.iter_loops(function.body)
            if isinstance(node, loop_types)
        ]
        # Determine the nest root of each loop: the outermost loop whose
        # subtree contains it.
        roots: Dict[int, ast.Stmt] = {}
        outermost: List[ast.Stmt] = []
        seen: set = set()
        for loop in top_level:
            if id(loop) in seen:
                continue
            outermost.append(loop)
            for inner in ast.iter_loops(loop):
                roots[id(inner)] = loop
                seen.add(id(inner))

        extracted: List[ExtractedLoop] = []
        index = 0
        for loop in ast.iter_loops(function.body):
            if not isinstance(loop, loop_types):
                continue
            if loop.body is not None and any(True for _ in ast.iter_loops(loop.body)):
                continue  # not innermost
            nest_root = roots.get(id(loop), loop)
            line = loop.span.start.line if loop.span is not None else 0
            extracted.append(
                ExtractedLoop(
                    function_name=function.name,
                    loop_index=index,
                    ast_loop=loop,
                    nest_root=nest_root,
                    source_line=line,
                    nest_depth=ast.loop_nest_depth(nest_root),
                    source_text=print_stmt(nest_root),
                )
            )
            index += 1
        return extracted


def extract_loops(
    source: str,
    function_name: Optional[str] = None,
    filename: str = "<source>",
) -> List[ExtractedLoop]:
    """Extract innermost loops from source, optionally from one function only.

    The loop list is kept on the source text's record in the process-wide
    frontend cache, beside the AST it was built from (which every other
    consumer of the same text shares, whatever ``filename`` it passes), so
    embedding pretraining, site discovery and evaluation runs extract each
    distinct kernel once per process, not once per caller.
    """
    record = frontend_cache().record(source, filename=filename)
    loops = record.loops.get(function_name)
    if loops is None:
        loops = LoopExtractor().extract_from_unit(record.unit)
        if function_name is not None:
            loops = [loop for loop in loops if loop.function_name == function_name]
            for index, loop in enumerate(loops):
                loop.loop_index = index
        # setdefault: racing extractions end up sharing one list.
        loops = record.loops.setdefault(function_name, loops)
    # Hand back a fresh list so callers may filter/extend without
    # corrupting the cached entry (the ExtractedLoop objects are shared).
    return list(loops)
