"""Finite computation trees with accept/reject leaves.

Trees are immutable and may share subtrees: the in-memory object is a DAG
whose unfolding is the computation tree, and a branch repeats its children
`count` times, so g equal subtrees are one edge.  All folds below are
memoized on node identity, so a value over the full unfolding (which can be
astronomically large) costs one visit per distinct node and stored edge.
Node budgets count distinct nodes plus stored edges, which bound the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ResourceError


@dataclass(frozen=True, eq=False)
class Leaf:
    accepting: bool


@dataclass(frozen=True, eq=False)
class Branch:
    children: tuple
    count: int = 1  # the children, in order, repeated this many times

    def __repr__(self) -> str:
        # Constant size: the default repr unfolds the shared DAG as a tree.
        return f"Branch(<{len(self.children)} children>, count={self.count})"


Node = Leaf | Branch

ACCEPT = Leaf(True)
REJECT = Leaf(False)


def fold(
    root: Node,
    leaf_value: Callable[[Leaf], object],
    combine: Callable[[Branch, list], object],
    node_budget: int | None = None,
):
    """Bottom-up computation over distinct nodes; shared subtrees visited once."""
    memo: dict[int, object] = {}
    work = 0  # distinct nodes plus stored edges folded so far
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Leaf):
            memo[id(node)] = leaf_value(node)
        else:
            missing = [c for c in node.children if id(c) not in memo]
            if missing:
                stack.append(node)
                stack.extend(missing)
                continue
            memo[id(node)] = combine(node, [memo[id(c)] for c in node.children])
            work += len(node.children)
        work += 1
        if node_budget is not None and work > node_budget:
            raise ResourceError(
                f"computation tree exceeds the node budget of {node_budget}: "
                f"{work} distinct nodes and edges (raise branch_bound)"
            )
    return memo[id(root)]


def leaf_counts(root: Node, node_budget: int | None = None) -> tuple[int, int]:
    """(accepting, rejecting) leaf counts of the unfolded tree, exact."""
    return fold(
        root,
        lambda leaf: (1, 0) if leaf.accepting else (0, 1),
        lambda node, kids: (
            node.count * sum(a for a, _ in kids),
            node.count * sum(r for _, r in kids),
        ),
        node_budget,
    )


def gap(root: Node, node_budget: int | None = None) -> int:
    """Accepting minus rejecting leaves of the unfolded tree."""
    acc, rej = leaf_counts(root, node_budget)
    return acc - rej


def distinct_size(root: Node) -> int:
    """Number of distinct nodes in the representation."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Branch):
            stack.extend(node.children)
    return len(seen)


def unfolded_size(root: Node) -> int:
    """Node count of the unfolded tree, with multiplicity."""
    return fold(root, lambda _: 1, lambda node, kids: 1 + node.count * sum(kids))


def unfolded_leaves(root: Node) -> int:
    """Leaf count of the unfolded tree, with multiplicity."""
    acc, rej = leaf_counts(root)
    return acc + rej


def rebuilt(root: Node, leaf_image: Callable[[Leaf], Node]) -> Node:
    """Copy of the DAG with every leaf replaced; sharing and counts are preserved.

    Subtrees whose leaves all map to themselves are reused unchanged.
    """

    def combine(node: Branch, kids: list) -> Node:
        if all(k is c for k, c in zip(kids, node.children)):
            return node
        return Branch(tuple(kids), node.count)

    return fold(root, leaf_image, combine)


def negated(root: Node) -> Node:
    """Same tree with accept and reject leaves swapped."""
    return rebuilt(root, lambda leaf: REJECT if leaf.accepting else ACCEPT)


def substituted(root: Node, on_accept: Node, on_reject: Node) -> Node:
    """Replace every accept leaf by on_accept and every reject leaf by on_reject."""
    return rebuilt(root, lambda leaf: on_accept if leaf.accepting else on_reject)
