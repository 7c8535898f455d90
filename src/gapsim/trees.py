"""Finite computation trees with accept/reject leaves.

Trees may share subtrees: the in-memory object is a DAG whose unfolding is
the computation tree.  Nodes are plain slotted objects: __init__ sets each
slot once, any later assignment or deletion raises AttributeError, and two
nodes are equal (and hash alike) only when they are the same object.  Branch
weights are nonzero signed ints: child i stands for |weights[i]| copies of
itself, negated (accept and reject swapped) when weights[i] < 0, so g equal
subtrees are one edge and a -1 weight is GapP closure under subtraction.  A
product node is GapP closure under products in one node: its unfolding is
`left` with every accept leaf replaced by `right` and every reject leaf by
`right` negated, so its gap is the product of theirs.  Every node stores the
(accepting, rejecting) leaf counts of its unfolding when it is built, so
gaps are read, never recomputed.  stored_size is one walk that reads each
distinct node's children once and sums its edges as it goes.  Size caps live
in the builders (gapp, lowness), which refuse a tree over its bound before
allocating it.  Nodes built bottom-up hold no cycle, so gapp.system_tree
pauses the garbage collector while it builds; the pause is process-global,
and other threads run without the collector then.
"""

from __future__ import annotations

_set = object.__setattr__  # writes a slot past the refusals below


class _Node:
    __slots__ = ()

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # pickle and copy pass (None, {slot: value})
        for name, value in state[1].items():
            _set(self, name, value)


class Leaf(_Node):
    __slots__ = ("accepting", "counts")

    def __init__(self, accepting: bool):
        _set(self, "accepting", accepting)
        _set(self, "counts", (1, 0) if accepting else (0, 1))

    def __repr__(self) -> str:
        return f"Leaf(accepting={self.accepting!r})"


class Branch(_Node):
    # Child i repeated |weights[i]| != 0 times, negated if negative; None: each once.
    __slots__ = ("children", "weights", "counts")

    def __init__(self, children: tuple, weights: tuple[int, ...] | None = None):
        acc = rej = 0
        if weights is None:
            for child in children:
                a, r = child.counts
                acc += a
                rej += r
        else:
            if len(children) != len(weights):
                raise ValueError(f"{len(weights)} weights for {len(children)} children")
            for child, w in zip(children, weights):
                a, r = child.counts
                if w < 0:  # -w copies of the child negated
                    a, r, w = r, a, -w
                acc += w * a
                rej += w * r
        _set(self, "children", children)
        _set(self, "weights", weights)
        _set(self, "counts", (acc, rej))

    def __repr__(self) -> str:
        # Constant size: a repr that recursed would unfold the shared DAG as a tree.
        return f"Branch(<{len(self.children)} children>, weights={self.weights})"


class Product(_Node):
    """left with accept leaves replaced by right and reject leaves by right negated."""

    __slots__ = ("left", "right", "counts")

    def __init__(self, left: Node, right: Node):
        a1, r1 = left.counts
        a2, r2 = right.counts
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "counts", (a1 * a2 + r1 * r2, a1 * r2 + r1 * a2))

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


def _walk(root: Node) -> tuple[dict[int, Node], int]:
    """Each distinct node by id, and their stored child edges; no recursion."""
    seen: dict[int, Node] = {}
    edges = 0
    stack = [root]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen[key] = node
        kind = type(node)
        if kind is Branch:
            children = node.children
        elif kind is Product:
            children = node.left, node.right
        else:
            continue
        edges += len(children)
        stack += children
    return seen, edges


def stored_size(root: Node) -> int:
    """Distinct nodes plus stored child edges: the memory a tree holds."""
    seen, edges = _walk(root)
    return len(seen) + edges


def unfolded_leaves(root: Node) -> int:
    """Leaf count of the unfolded tree, with multiplicity."""
    return sum(root.counts)
