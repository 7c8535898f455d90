"""Finite computation trees with accept/reject leaves.

Trees are immutable and may share subtrees: the in-memory object is a DAG
whose unfolding is the computation tree.  Branch weights are nonzero
signed ints: child i stands for |weights[i]| copies of itself, negated
(accept and reject swapped) when weights[i] < 0, so g equal subtrees are
one edge and a -1 weight is GapP closure under subtraction.  A product node
is GapP closure under products in one node: its unfolding is `left` with
every accept leaf replaced by `right` and every reject leaf by `right`
negated, so its gap is the product of theirs.  Every node stores the
(accepting, rejecting) leaf counts of its unfolding when it is built, so
gaps are read, never recomputed.  The walks below visit each distinct node
once.  Size caps live in the builders (gapp, lowness), which refuse a tree
over its bound before allocating it.  Nodes built bottom-up hold no cycle,
so gapp.system_tree pauses the garbage collector while it builds; the pause
is process-global, and other threads run without the collector then.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, eq=False, slots=True)
class Leaf:
    accepting: bool
    counts: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", (1, 0) if self.accepting else (0, 1))


@dataclass(frozen=True, eq=False, slots=True)
class Branch:
    children: tuple
    # Child i repeated |weights[i]| != 0 times, negated if negative; None: each once.
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
                if w < 0:  # -w copies of the child negated
                    a, r, w = r, a, -w
                acc += w * a
                rej += w * r
        object.__setattr__(self, "counts", (acc, rej))

    def __repr__(self) -> str:
        # Constant size: the default repr unfolds the shared DAG as a tree.
        return f"Branch(<{len(self.children)} children>, weights={self.weights})"


@dataclass(frozen=True, eq=False, slots=True)
class Product:
    """left with accept leaves replaced by right and reject leaves by right negated."""

    left: Node
    right: Node
    counts: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a1, r1 = self.left.counts
        a2, r2 = self.right.counts
        object.__setattr__(self, "counts", (a1 * a2 + r1 * r2, a1 * r2 + r1 * a2))

    def __repr__(self) -> str:
        return "Product(<left>, <right>)"


Node = Leaf | Branch | Product

ACCEPT = Leaf(True)
REJECT = Leaf(False)


def gap(root: Node, node_budget: int | None = None) -> int:
    """Accepting minus rejecting leaves of the unfolded tree.

    node_budget is unused.  It stays for callers that still pass a budget
    positionally (perfbench's gap_trees workload); the builders refuse a
    tree over its bound before it exists, so reading the gap needs none.
    """
    acc, rej = root.counts
    return acc - rej


def _stored_children(node: Node) -> tuple:
    if isinstance(node, Branch):
        return node.children
    if isinstance(node, Product):
        return node.left, node.right
    return ()


def _distinct(root: Node) -> list[Node]:
    seen: dict[int, Node] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(_stored_children(node))
    return list(seen.values())


def stored_size(root: Node) -> int:
    """Distinct nodes plus stored child edges: the memory a tree holds."""
    return sum(1 + len(_stored_children(node)) for node in _distinct(root))


def unfolded_leaves(root: Node) -> int:
    """Leaf count of the unfolded tree, with multiplicity."""
    return sum(root.counts)
