"""Finite computation trees with accept/reject leaves.

Trees are immutable and may share subtrees: the in-memory object is a DAG
whose unfolding is the computation tree, and a branch may weight its
children, child i standing for `weights[i]` copies of itself, so g equal
subtrees are one edge.  Every node stores the (accepting, rejecting) leaf
counts of its unfolding when it is built, the weighted sum of its
children's counts, so gaps are read, never recomputed.  The folds below
are memoized on node identity and cost one visit per distinct node and
stored edge.  Size caps live in the builders (gapp, lowness), which refuse
a tree over its bound before allocating it.  Nodes built bottom-up hold no
cycle, so gapp.system_tree pauses the garbage collector while it builds; the
pause is process-global, and other threads run without the collector then.
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
    # Child i repeated weights[i] >= 1 times in the unfolding; None: each once.
    weights: tuple[int, ...] | None = None
    counts: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        acc = rej = 0
        if self.weights is None:
            for child in self.children:
                a, r = child.counts
                acc += a
                rej += r
        else:
            for child, w in zip(self.children, self.weights, strict=True):
                a, r = child.counts
                acc += w * a
                rej += w * r
        object.__setattr__(self, "counts", (acc, rej))

    def __repr__(self) -> str:
        # Constant size: the default repr unfolds the shared DAG as a tree.
        return f"Branch(<{len(self.children)} children>, weights={self.weights})"


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


def stored_size(root: Node) -> int:
    """Distinct nodes plus stored child edges: the memory a tree holds."""
    return sum(
        1 + len(node.children) if isinstance(node, Branch) else 1
        for node in _distinct(root)
    )


def unfolded_leaves(root: Node) -> int:
    """Leaf count of the unfolded tree, with multiplicity."""
    return sum(root.counts)


def rebuilt(root: Node, leaf_image: Callable[[Leaf], Node]) -> Node:
    """Copy of the DAG with every leaf replaced; sharing and weights are preserved.

    Subtrees whose leaves all map to themselves are reused unchanged.
    """

    def combine(node: Branch, kids: list) -> Node:
        kids = tuple(kids)  # nodes compare by identity, so == is an `is` per child
        return node if kids == node.children else Branch(kids, node.weights)

    return fold(root, leaf_image, combine)


def negated(root: Node) -> Node:
    """Same tree with accept and reject leaves swapped."""
    return rebuilt(root, lambda leaf: REJECT if leaf.accepting else ACCEPT)


def substituted(root: Node, on_accept: Node, on_reject: Node) -> Node:
    """Replace every accept leaf by on_accept and every reject leaf by on_reject."""
    return rebuilt(root, lambda leaf: on_accept if leaf.accepting else on_reject)
