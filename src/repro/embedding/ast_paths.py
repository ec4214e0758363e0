"""AST path-context extraction (the front half of code2vec).

A *path context* is a triple ``(start_token, path, end_token)`` where the
path is the sequence of AST node labels walked from one leaf up to the lowest
common ancestor and back down to another leaf.  code2vec embeds each of the
three components and lets attention decide which contexts matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Dict, List, Optional, Tuple

from repro.frontend import ast


@dataclass(frozen=True, slots=True)
class PathContext:
    """One leaf-to-leaf path through the AST."""

    start_token: str
    path: str
    end_token: str

    def __str__(self) -> str:
        return f"{self.start_token},{self.path},{self.end_token}"


@dataclass
class _Leaf:
    token: str
    #: Stripped node labels from the root of the extracted subtree down to
    #: the leaf.
    labels: Tuple[str, ...]
    #: Positions (child indices) along the path, to find common prefixes.
    positions: Tuple[int, ...]


def _leaf_token(node: ast.Node) -> Optional[str]:
    """The terminal token a node contributes, or ``None`` for internal nodes."""
    if isinstance(node, ast.Identifier):
        return node.name
    if isinstance(node, ast.IntLiteral):
        return str(node.value)
    if isinstance(node, ast.FloatLiteral):
        return str(node.value)
    if isinstance(node, ast.CharLiteral):
        return f"char_{node.value}"
    if isinstance(node, ast.StringLiteral):
        return "string"
    if isinstance(node, ast.VarDecl):
        return node.name
    if isinstance(node, ast.BreakStmt):
        return "break"
    if isinstance(node, ast.ContinueStmt):
        return "continue"
    return None


def _collect_leaves(
    node: ast.Node,
    labels: Tuple[str, ...],
    positions: Tuple[int, ...],
    leaves: List[_Leaf],
) -> None:
    """Append the leaves under ``node`` in pre-order, which lists their
    position tuples in increasing lexicographic order."""
    labels = labels + (_strip_label(node.label()),)
    token = _leaf_token(node)
    if token is not None:
        # Nodes like VarDecl both carry a token and have children (the init).
        leaves.append(_Leaf(token=token, labels=labels, positions=positions))
    children = [child for child in node.children() if child is not None]
    for index, child in enumerate(children):
        _collect_leaves(child, labels, positions + (index,), leaves)


def _common_prefix(first: Tuple[int, ...], second: Tuple[int, ...]) -> int:
    length = 0
    for a, b in zip(first, second):
        if a != b:
            break
        length += 1
    return length


def extract_path_contexts(
    node: ast.Node,
    max_path_length: int = 8,
    max_path_width: int = 3,
    max_contexts: int = 200,
    rename_map: Optional[Dict[str, str]] = None,
) -> List[PathContext]:
    """Extract path contexts from the AST subtree rooted at ``node``.

    ``max_path_length`` bounds the number of nodes on a path and
    ``max_path_width`` bounds the distance between the two leaves' branches at
    the common ancestor — the same hyperparameters code2vec uses to keep the
    context set small.  ``rename_map`` normalises identifiers so that variable
    naming does not bias the embedding.  Leaf pairs are visited in pre-order
    pair order and the bag is cut at ``max_contexts``.

    A path is the up half (the labels from the first leaf up to the common
    ancestor, inclusive), the label of the ancestor's parent (the root's
    own label when the ancestor is the root) and the down half (from the
    ancestor, inclusive, down to the second leaf).  Each half depends only
    on one leaf and the common depth, so it is built once per leaf and
    depth; a pair that fails the width or length limit builds no string.
    """
    leaves: List[_Leaf] = []
    _collect_leaves(node, (), (), leaves)
    rename_map = rename_map or {}
    tokens = [intern(rename_map.get(leaf.token, leaf.token)) for leaf in leaves]
    # Pre-order sorts the position tuples, so the prefix leaves a < b share
    # is the minimum of the adjacent prefixes between them.
    adjacent = [0] + [
        _common_prefix(before.positions, after.positions)
        for before, after in zip(leaves, leaves[1:])
    ]
    heads: List[Dict[int, str]] = [{} for _ in leaves]
    tails: List[Dict[int, str]] = [{} for _ in leaves]

    contexts: List[PathContext] = []
    longest_up = max_path_length - 2
    for index_a, leaf_a in enumerate(leaves):
        labels_a, positions_a = leaf_a.labels, leaf_a.positions
        depth_a = len(positions_a)
        common = depth_a
        for index_b in range(index_a + 1, len(leaves)):
            if adjacent[index_b] < common:
                common = adjacent[index_b]
            # The down half has at least one node and ``common`` only
            # shrinks, so no later partner fits either.
            if depth_a - common >= longest_up:
                break
            leaf_b = leaves[index_b]
            # A leaf never precedes a leaf on its own ancestry, so only
            # ``leaf_a`` can end at the common ancestor.
            if common < depth_a and (
                abs(positions_a[common] - leaf_b.positions[common]) > max_path_width
            ):
                continue
            if depth_a + len(leaf_b.positions) - 2 * common + 3 > max_path_length:
                continue
            head = heads[index_a].get(common)
            if head is None:
                ancestor = labels_a[common - 1] if common > 0 else labels_a[0]
                up = "^".join(reversed(labels_a[common:]))
                head = heads[index_a][common] = f"{up}^{ancestor}_"
            tail = tails[index_b].get(common)
            if tail is None:
                tail = tails[index_b][common] = "_".join(leaf_b.labels[common:])
            contexts.append(
                PathContext(tokens[index_a], intern(head + tail), tokens[index_b])
            )
            if len(contexts) >= max_contexts:
                return contexts
    return contexts


def _strip_label(label: str) -> str:
    """Drop value payloads from labels so paths generalise (Name:x -> Name)."""
    return label.split(":", 1)[0]


def loop_tokens(node: ast.Node) -> List[str]:
    """All terminal tokens of the subtree, in source order (used for vocab
    statistics and identifier normalisation)."""
    leaves: List[_Leaf] = []
    _collect_leaves(node, (), (), leaves)
    return [leaf.token for leaf in leaves]
