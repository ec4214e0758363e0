"""Abstract syntax tree for the C subset.

Nodes are plain dataclasses.  Every node exposes:

* ``children()`` — child nodes in source order (used by the code2vec path
  extractor and by generic traversals),
* ``label()`` — a short node label used when building AST path contexts,
* an optional ``span`` locating the node in the original text.

The tree distinguishes expressions, statements and top-level declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.frontend.ctypes import CType
from repro.frontend.errors import SourceSpan
from repro.frontend.pragmas import LoopPragma


# ---------------------------------------------------------------------------
# Base classes
# ---------------------------------------------------------------------------


@dataclass
class Node:
    """Base class for every AST node."""

    span: Optional[SourceSpan] = field(default=None, repr=False, compare=False)

    def children(self) -> Iterable["Node"]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this subtree (including self)."""
        yield self
        for child in self.children():
            if child is not None:
                yield from child.walk()


@dataclass
class Expr(Node):
    """Base class for expressions.  ``ctype`` is filled in by sema."""

    ctype: Optional[CType] = field(default=None, compare=False)


@dataclass
class Stmt(Node):
    """Base class for statements."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class IntLiteral(Expr):
    value: int = 0

    def label(self) -> str:
        return f"Int:{self.value}"


@dataclass
class FloatLiteral(Expr):
    value: float = 0.0

    def label(self) -> str:
        return f"Float:{self.value}"


@dataclass
class CharLiteral(Expr):
    value: int = 0

    def label(self) -> str:
        return f"Char:{self.value}"


@dataclass
class StringLiteral(Expr):
    value: str = ""

    def label(self) -> str:
        return "String"


@dataclass
class Identifier(Expr):
    name: str = ""

    def label(self) -> str:
        return f"Name:{self.name}"


@dataclass
class ArraySubscript(Expr):
    """``base[index]``.  Multi-dimensional accesses nest subscripts."""

    base: Optional[Expr] = None
    index: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.base, self.index)

    def label(self) -> str:
        return "Subscript"

    def root_array(self) -> Optional[Identifier]:
        """The identifier at the bottom of a (possibly nested) subscript."""
        node: Optional[Expr] = self.base
        while isinstance(node, ArraySubscript):
            node = node.base
        return node if isinstance(node, Identifier) else None

    def indices(self) -> List[Expr]:
        """All indices ordered outermost-dimension first."""
        collected: List[Expr] = []
        node: Expr = self
        while isinstance(node, ArraySubscript):
            collected.append(node.index)
            node = node.base
        collected.reverse()
        return collected


@dataclass
class UnaryOp(Expr):
    op: str = "-"
    operand: Optional[Expr] = None
    is_postfix: bool = False

    def children(self) -> Iterable[Node]:
        return (self.operand,)

    def label(self) -> str:
        suffix = "post" if self.is_postfix else "pre"
        return f"Unary:{self.op}:{suffix}"


@dataclass
class BinaryOp(Expr):
    op: str = "+"
    left: Optional[Expr] = None
    right: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"Binary:{self.op}"


@dataclass
class Assignment(Expr):
    """``target op value`` where op is ``=`` or a compound assignment."""

    op: str = "="
    target: Optional[Expr] = None
    value: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.target, self.value)

    def label(self) -> str:
        return f"Assign:{self.op}"


@dataclass
class TernaryOp(Expr):
    condition: Optional[Expr] = None
    then_value: Optional[Expr] = None
    else_value: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.condition, self.then_value, self.else_value)

    def label(self) -> str:
        return "Ternary"


@dataclass
class Cast(Expr):
    target_type: Optional[CType] = None
    operand: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.operand,)

    def label(self) -> str:
        return f"Cast:{self.target_type}"


@dataclass
class Call(Expr):
    callee: str = ""
    args: List[Expr] = field(default_factory=list)

    def children(self) -> Iterable[Node]:
        return tuple(self.args)

    def label(self) -> str:
        return f"Call:{self.callee}"


@dataclass
class SizeOf(Expr):
    target_type: Optional[CType] = None
    operand: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.operand,) if self.operand is not None else ()

    def label(self) -> str:
        return "SizeOf"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class VarDecl(Node):
    """A single declared variable (possibly part of a multi-declarator stmt)."""

    name: str = ""
    ctype: Optional[CType] = None
    init: Optional[Expr] = None
    attributes: List[str] = field(default_factory=list)
    is_global: bool = False

    def children(self) -> Iterable[Node]:
        return (self.init,) if self.init is not None else ()

    def label(self) -> str:
        return f"Decl:{self.name}"

    @property
    def alignment(self) -> Optional[int]:
        """Alignment requested via ``__attribute__((aligned(N)))``, if any."""
        for attr in self.attributes:
            if attr.startswith("aligned(") and attr.endswith(")"):
                try:
                    return int(attr[len("aligned(") : -1])
                except ValueError:
                    return None
        return None


@dataclass
class DeclStmt(Stmt):
    declarations: List[VarDecl] = field(default_factory=list)

    def children(self) -> Iterable[Node]:
        return tuple(self.declarations)

    def label(self) -> str:
        return "DeclStmt"


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.expr,) if self.expr is not None else ()

    def label(self) -> str:
        return "ExprStmt"


@dataclass
class CompoundStmt(Stmt):
    statements: List[Stmt] = field(default_factory=list)

    def children(self) -> Iterable[Node]:
        return tuple(self.statements)

    def label(self) -> str:
        return "Block"


@dataclass
class ForStmt(Stmt):
    """A ``for`` loop.  ``pragma`` carries any clang loop hint attached to it."""

    init: Optional[Stmt] = None
    condition: Optional[Expr] = None
    increment: Optional[Expr] = None
    body: Optional[Stmt] = None
    pragma: Optional[LoopPragma] = None

    def children(self) -> Iterable[Node]:
        return tuple(
            child
            for child in (self.init, self.condition, self.increment, self.body)
            if child is not None
        )

    def label(self) -> str:
        return "For"


@dataclass
class WhileStmt(Stmt):
    condition: Optional[Expr] = None
    body: Optional[Stmt] = None
    pragma: Optional[LoopPragma] = None

    def children(self) -> Iterable[Node]:
        return tuple(child for child in (self.condition, self.body) if child)

    def label(self) -> str:
        return "While"


@dataclass
class DoWhileStmt(Stmt):
    body: Optional[Stmt] = None
    condition: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return tuple(child for child in (self.body, self.condition) if child)

    def label(self) -> str:
        return "DoWhile"


@dataclass
class IfStmt(Stmt):
    condition: Optional[Expr] = None
    then_branch: Optional[Stmt] = None
    else_branch: Optional[Stmt] = None

    def children(self) -> Iterable[Node]:
        return tuple(
            child
            for child in (self.condition, self.then_branch, self.else_branch)
            if child is not None
        )

    def label(self) -> str:
        return "If"


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.value,) if self.value is not None else ()

    def label(self) -> str:
        return "Return"


@dataclass
class BreakStmt(Stmt):
    def label(self) -> str:
        return "Break"


@dataclass
class ContinueStmt(Stmt):
    def label(self) -> str:
        return "Continue"


@dataclass
class PragmaStmt(Stmt):
    """A pragma that has not (yet) been attached to a following loop."""

    pragma: Optional[LoopPragma] = None
    raw_text: str = ""

    def label(self) -> str:
        return "Pragma"


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Parameter(Node):
    name: str = ""
    ctype: Optional[CType] = None

    def label(self) -> str:
        return f"Param:{self.name}"


@dataclass
class FunctionDecl(Node):
    name: str = ""
    return_type: Optional[CType] = None
    parameters: List[Parameter] = field(default_factory=list)
    body: Optional[CompoundStmt] = None
    attributes: List[str] = field(default_factory=list)

    def children(self) -> Iterable[Node]:
        children: Tuple[Node, ...] = tuple(self.parameters)
        if self.body is not None:
            children = children + (self.body,)
        return children

    def label(self) -> str:
        return f"Function:{self.name}"


@dataclass
class TranslationUnit(Node):
    """The root of the AST for one source file."""

    filename: str = "<source>"
    globals: List[VarDecl] = field(default_factory=list)
    functions: List[FunctionDecl] = field(default_factory=list)

    def children(self) -> Iterable[Node]:
        return tuple(self.globals) + tuple(self.functions)

    def label(self) -> str:
        return "TranslationUnit"

    def find_function(self, name: str) -> Optional[FunctionDecl]:
        for function in self.functions:
            if function.name == name:
                return function
        return None

    def find_global(self, name: str) -> Optional[VarDecl]:
        for decl in self.globals:
            if decl.name == name:
                return decl
        return None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def iter_loops(node: Node) -> Iterator[Stmt]:
    """Yield every ``for``/``while`` loop in the subtree, outermost first."""
    for child in node.walk():
        if isinstance(child, (ForStmt, WhileStmt, DoWhileStmt)):
            yield child


def _outermost_loops(node: Node) -> Iterator[Stmt]:
    """Loops in the subtree with no enclosing loop inside it (node included)."""
    if isinstance(node, (ForStmt, WhileStmt, DoWhileStmt)):
        yield node
        return
    for child in node.children():
        yield from _outermost_loops(child)


def loop_nest_depth(loop: Node) -> int:
    """Number of loop levels contained in ``loop`` (1 for a simple loop)."""
    if not isinstance(loop, (ForStmt, WhileStmt, DoWhileStmt)):
        return 0
    body = loop.body
    if body is None:
        return 1
    # Recurse only on the body's outermost loops (the body itself may be one
    # for brace-less nesting); visiting every descendant loop would re-enter
    # deep nests once per ancestor, i.e. exponentially.
    deepest = 0
    for child in _outermost_loops(body):
        deepest = max(deepest, loop_nest_depth(child))
    return 1 + deepest


def innermost_loops(node: Node) -> List[Stmt]:
    """All loops in the subtree that contain no further loops."""
    result: List[Stmt] = []
    for loop in iter_loops(node):
        has_inner = loop.body is not None and any(True for _ in iter_loops(loop.body))
        if not has_inner:
            result.append(loop)
    return result


def count_nodes(node: Node, node_type: Optional[type] = None) -> int:
    """Count nodes in the subtree, optionally restricted to one class."""
    if node_type is None:
        return sum(1 for _ in node.walk())
    return sum(1 for child in node.walk() if isinstance(child, node_type))
