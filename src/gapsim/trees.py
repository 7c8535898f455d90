"""Finite computation trees with accept/reject leaves.

Trees are immutable and may share subtrees: the in-memory object is a DAG
whose unfolding is the computation tree, and a branch repeats its children
`count` times, so g equal subtrees are one edge.  Every node stores the
(accepting, rejecting) leaf counts of its unfolding when it is built, from
its children's counts and its `count`, so gaps are read, never recomputed.
The folds below are memoized on node identity and cost one visit per
distinct node and stored edge.  Size caps live in the builders (gapp,
lowness), which refuse a tree over its bound before allocating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True, eq=False, slots=True)
class Leaf:
    accepting: bool
    counts: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", (1, 0) if self.accepting else (0, 1))


@dataclass(frozen=True, eq=False, slots=True)
class Branch:
    children: tuple
    count: int = 1  # the children, in order, repeated this many times
    counts: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        acc = rej = 0
        for child in self.children:
            a, r = child.counts
            acc += a
            rej += r
        object.__setattr__(self, "counts", (self.count * acc, self.count * rej))

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
):
    """Bottom-up computation over distinct nodes; shared subtrees visited once."""
    memo: dict[int, object] = {}
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
    return memo[id(root)]


def leaf_counts(root: Node) -> tuple[int, int]:
    """(accepting, rejecting) leaf counts of the unfolded tree, exact."""
    return root.counts


def gap(root: Node, node_budget: int | None = None) -> int:
    """Accepting minus rejecting leaves of the unfolded tree.

    node_budget is unused.  It stays for callers that still pass a budget
    positionally (perfbench's gap_trees workload); the builders refuse a
    tree over its bound before it exists, so reading the gap needs none.
    """
    acc, rej = root.counts
    return acc - rej


def _distinct(root: Node) -> list[Node]:
    seen: dict[int, Node] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if isinstance(node, Branch):
            stack.extend(node.children)
    return list(seen.values())


def distinct_size(root: Node) -> int:
    """Number of distinct nodes in the representation."""
    return len(_distinct(root))


def stored_size(root: Node) -> int:
    """Distinct nodes plus stored child edges: the memory a tree holds."""
    return sum(
        1 + len(node.children) if isinstance(node, Branch) else 1
        for node in _distinct(root)
    )


def unfolded_size(root: Node) -> int:
    """Node count of the unfolded tree, with multiplicity."""
    return fold(root, lambda _: 1, lambda node, kids: 1 + node.count * sum(kids))


def unfolded_leaves(root: Node) -> int:
    """Leaf count of the unfolded tree, with multiplicity."""
    return sum(root.counts)


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
