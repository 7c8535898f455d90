"""Finite computation trees with accept/reject leaves, valued by their gap.

Trees may share subtrees: the in-memory object is a DAG whose unfolding is
the computation tree.  Nodes are plain slotted objects: __init__ sets each
slot once, any later assignment or deletion raises AttributeError, and two
nodes are equal (and hash alike) only when they are the same object.  Branch
weights are nonzero signed ints: child i stands for |weights[i]| copies of
itself, negated (accept and reject swapped) when weights[i] < 0, so g equal
subtrees are one edge and a -1 weight is GapP closure under subtraction.  A
product node is GapP closure under products in one node: its unfolding is
`left` with every accept leaf replaced by `right` and every reject leaf by
`right` negated.  A node stores one number, its gap (accept minus reject
leaves), set when it is built: ±1 at a leaf, the weighted sum of the
children's at a branch, the product of the two at a product.  Size caps
live in the builders (gapp, lowness), which refuse a tree over its bound
before allocating it.  Nodes built bottom-up hold no cycle, so
gapp.system_tree pauses the garbage collector while it builds; the pause is
process-global, and other threads run without the collector then.
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
    __slots__ = ("gap",)

    def __init__(self, gap: int):  # 1 for an accept leaf, -1 for a reject leaf
        _set(self, "gap", gap)

    def __repr__(self) -> str:
        return f"Leaf(gap={self.gap!r})"


class Branch(_Node):
    # Child i repeated |weights[i]| != 0 times, negated if negative; None: each once.
    __slots__ = ("children", "weights", "gap")

    def __init__(self, children: tuple, weights: tuple[int, ...] | None = None):
        total = 0
        if weights is None:
            for child in children:
                total += child.gap
        else:
            if len(children) != len(weights):
                raise ValueError(f"{len(weights)} weights for {len(children)} children")
            for child, w in zip(children, weights):
                total += w * child.gap
        _set(self, "children", children)
        _set(self, "weights", weights)
        _set(self, "gap", total)

    def __repr__(self) -> str:
        # Constant size: a repr that recursed would unfold the shared DAG as a tree.
        return f"Branch(<{len(self.children)} children>, weights={self.weights})"


class Product(_Node):
    """left with accept leaves replaced by right and reject leaves by right negated."""

    __slots__ = ("left", "right", "gap")

    def __init__(self, left: Node, right: Node):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "gap", left.gap * right.gap)

    def __repr__(self) -> str:
        return "Product(<left>, <right>)"


Node = Leaf | Branch | Product

ACCEPT = Leaf(1)
REJECT = Leaf(-1)


def gap(root: Node, node_budget: int | None = None) -> int:
    """Accept minus reject leaves of the unfolded tree; perfbench passes the unused node_budget."""
    return root.gap


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
        if type(node) is not Leaf:
            children = (node.left, node.right) if type(node) is Product else node.children
            edges += len(children)
            stack += children
    return seen, edges


def stored_size(root: Node) -> int:
    """Distinct nodes plus stored child edges: the memory a tree holds."""
    seen, edges = _walk(root)
    return len(seen) + edges


def unfolded_leaves(root: Node) -> int:
    """Leaf count of the unfolded tree, with multiplicity, by one children-first walk
    (no recursion) over the distinct nodes; a leaf child counts 1 where it is read."""
    below: dict[int, int] = {}  # each walked node's leaf count, by id
    stack = [] if type(root) is Leaf else [root]
    while stack:
        node = stack.pop()
        if id(node) in below:
            continue
        children = (node.left, node.right) if type(node) is Product else node.children
        missing = [c for c in children if type(c) is not Leaf and id(c) not in below]
        if missing:
            stack += [node, *missing]
        elif type(node) is Product:
            below[id(node)] = below.get(id(node.left), 1) * below.get(id(node.right), 1)
        else:
            sizes = [below.get(id(c), 1) for c in children]
            if node.weights is not None:
                sizes = [abs(w) * n for w, n in zip(node.weights, sizes)]
            below[id(node)] = sum(sizes)
    return below.get(id(root), 1)
