"""Gap machines: finite nondeterministic computations valued by their gap.

A machine maps an input string to a computation tree; its value is the
number of accept leaves minus reject leaves.  The closure combinators below
are machine transformations only: they rearrange trees and never touch the
gap values themselves, so brute-force gap arithmetic stays available as an
independent oracle in the tests.
"""

from __future__ import annotations

import functools
import gc
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import model, trees
from .errors import ParseError, PromiseViolation, ResourceError, StructuralError
from .evolve import accept_probability
from .model import MachineFamily, UnitarySystem, eval_poly
from .strings import pair, pair_codes, unpair
from .trees import ACCEPT, REJECT, Branch, Node, Product

DEFAULT_BRANCH_BOUND = 1 << 20
MAX_TREE_DEPTH = 256  # _decoded spends two frames a level: 512 of the default limit of 1000


@dataclass(frozen=True)
class GapMachine:
    """Evaluator from input strings to computation trees.

    Every tree builder refuses over DEFAULT_BRANCH_BOUND before it builds.
    """

    evaluator: Callable[[str], Node]

    @property
    def branch_bound(self) -> int:
        """DEFAULT_BRANCH_BOUND; perfbench's _combinator_job still reads it."""
        return DEFAULT_BRANCH_BOUND


def bound_error(what: str, value) -> ResourceError:
    """Refusal of a tree whose size passes DEFAULT_BRANCH_BOUND, raised before it is built."""
    return ResourceError(what, value, DEFAULT_BRANCH_BOUND, "gapp.DEFAULT_BRANCH_BOUND")


def gap_of(machine: GapMachine, x: str) -> int:
    """Exact gap of the machine's tree on x; the ground truth for every combinator."""
    return trees.gap(machine.evaluator(x))


def negate(machine: GapMachine) -> GapMachine:
    """Machine whose tree is one branch over the tree at weight -1, so gaps change sign."""
    return GapMachine(lambda x: Branch((machine.evaluator(x),), (-1,)))


def exp_sum(machine: GapMachine, q: Sequence[int]) -> GapMachine:
    """Branch over every y with len(y) <= q(len(x)), then run machine on <x, y>."""
    q = tuple(q)

    def evaluator(x: str) -> Node:
        bound = eval_poly(q, len(x))
        if bound < 0:
            raise StructuralError("negative branching length")
        # Bit lengths first, so a huge bound is refused before 2**bound is built.
        width = bound + 1
        if width > DEFAULT_BRANCH_BOUND.bit_length() or (1 << width) - 1 > DEFAULT_BRANCH_BOUND:
            raise bound_error("exp_sum branches", f"2**{width} - 1")
        return Branch(tuple(map(machine.evaluator, pair_codes(x, (1 << width) - 1))))

    return GapMachine(evaluator)


def poly_product(machine: GapMachine, q: Sequence[int]) -> GapMachine:
    """Sequential composition computing the product over y = 0 .. q(len(x)).

    Numbers index binary strings canonically.  The running tree and each
    factor become one product node, so the factors are shared, not copied,
    and the tree stores one node and two edges per factor past the first.
    """
    q = tuple(q)

    def evaluator(x: str) -> Node:
        bound = eval_poly(q, len(x))
        if bound < 0:
            raise StructuralError("negative product range")
        if bound + 1 > DEFAULT_BRANCH_BOUND:
            raise bound_error("poly_product factors", bound + 1)
        return functools.reduce(Product, map(machine.evaluator, pair_codes(x, bound + 1)))

    return GapMachine(evaluator)


_ZERO = Branch((ACCEPT, REJECT))


def system_tree(system: UnitarySystem) -> Node:
    """Tree whose gap is the squared accept amplitude of the system.

    Only the two-sided cone is built: a row gets a node at step s only if it
    is reachable from start in s steps and reaches accept in exactly t - s
    more.  That node is one branch over the sources reached at step s - 1
    (at most two, each in the cone because it reaches accept through the
    row), weighted by the signed matrix entries, so its gap is the signed
    sum over the length-s paths from start of the products of edge weights;
    start at step 0 is the accept leaf.  Rows off the cone were never under
    the root, so the DAG is the one a forward pass over every reached row
    would leave there.  The square is one product node over the accept
    row's branch, read twice; an unreached accept gives gap 0.

    Before any node is built, the forward frontiers from start are taken
    from the blocks alone and kept while their total stays within
    DEFAULT_BRANCH_BOUND.  Past it a reached accept is refused, bounded by
    4 + 3 times that total (a row reads at most two sources); an unreached
    one still gives the gap-0 tree.  Each frontier is a function of the one
    before, so the pass stops at a fixed point: every later step holds the
    same set object, and only the total grows.  A walk back from accept
    inside the frontiers gives the cone and the exact count of the nodes
    and edges the tree will store: one branch per cone row and one edge per
    source it reads, plus four for the product and the leaf (five for the
    gap-0 tree).  Once that count passes DEFAULT_BRANCH_BOUND the walk
    stops and the system is refused.  That walk and the build read one table
    of each row's source columns and weights tuples (both, the first, the
    second), shared by its nodes; layers are dicts, so a step costs its cone.
    """
    # Per row: source columns (-1: a single's second) and weights; per column: its rows.
    pairs, singles = system.blocks
    table, rows_of = {}, {}
    for c1, c2, r1, r2, a, b, c, d in pairs:
        table[r1], table[r2] = ((c1, c2), (a, b), (a,), (b,)), ((c1, c2), (c, d), (c,), (d,))
        rows_of[c1] = rows_of[c2] = (r1, r2)
    for c, r, w in singles:
        table[r], rows_of[c] = ((c, -1), None, (w,), None), (r,)

    frontiers, frontier, total = [], {system.start}, 0
    for step in range(system.t_bound):
        total += len(frontier)
        if total <= DEFAULT_BRANCH_BOUND:  # past it only the count goes on
            frontiers.append(frontier)
        following = {r for c in frontier for r in rows_of[c]}
        if following == frontier:  # a fixed point: every later step has this set
            left = system.t_bound - 1 - step
            room = max(0, (DEFAULT_BRANCH_BOUND - total) // len(frontier))
            frontiers += [frontier] * min(left, room)
            total += left * len(frontier)
            break
        frontier = following
    reached = system.accept in frontier
    what = "system_tree stored nodes and edges (upper bound)"
    if reached and total > DEFAULT_BRANCH_BOUND:
        raise bound_error(what, 4 + 3 * (total + len(frontier)))
    cone, cones, stored = {system.accept}, [], 4 if reached else 5
    for before in reversed(frontiers) if reached else ():
        if stored > DEFAULT_BRANCH_BOUND:
            break
        cones.append(cone)
        read = [c for r in cone for c in table[r][0] if c in before]
        stored += len(cone) + len(read)
        cone = set(read)
    if stored > DEFAULT_BRANCH_BOUND:
        raise bound_error(what, stored)
    if not reached:
        return _ZERO

    paused = gc.isenabled()
    gc.disable()  # see the trees docstring: the build makes no cycle to collect
    try:
        layer: dict[int, Node] = {system.start: ACCEPT}
        for cone in reversed(cones):
            pushed: dict[int, Node] = {}
            for r in cone:  # a cone row reads at least one of its sources from the layer
                (c1, c2), both, first, second = table[r]
                if c1 not in layer:
                    pushed[r] = Branch((layer[c2],), second)
                elif c2 in layer:
                    pushed[r] = Branch((layer[c1], layer[c2]), both)
                else:
                    pushed[r] = Branch((layer[c1],), first)
            layer = pushed
        root = layer[system.accept]
        return Product(root, root)
    finally:
        if paused:
            gc.enable()


def system_to_gap_machine(system: UnitarySystem) -> GapMachine:
    """Constant machine whose gap equals the acceptance-probability numerator."""
    tree = system_tree(system)
    return GapMachine(lambda _x: tree)


def _compiled(system_of: Callable[[str], UnitarySystem]) -> GapMachine:
    """Machine compiling the system of each input once; repeats reuse the tree."""
    return GapMachine(functools.cache(lambda z: system_tree(system_of(z))))


@dataclass(frozen=True)
class ClassCertificate:
    """A class's gap machine f and tally g, with AWPP's error polynomial q."""

    f: GapMachine
    g: Callable[[int], int]
    q_coeffs: tuple[int, ...] | None = None

    def g_value(self, m: int) -> int:
        value = self.g(m)
        if value <= 0:
            raise StructuralError(f"tally g({m}) = {value} must be positive")
        return value

    def q_value(self, m: int) -> int:
        if self.q_coeffs is None:
            raise StructuralError("an LWPP certificate has no polynomial q")
        return eval_poly(self.q_coeffs, m)


@dataclass(frozen=True)
class CheckRow:
    x: str
    value: int
    ok: bool


@dataclass(frozen=True)
class AwppRow:
    x: str
    value: int
    tally: int
    threshold_ok: bool
    in_range: bool

    @property
    def ok(self) -> bool:
        return self.threshold_ok and self.in_range


@dataclass(frozen=True)
class CheckReport:
    rows: tuple[CheckRow | AwppRow, ...]
    ok: bool


LabeledInputs = Iterable[tuple[str, bool]]


def _report(rows: list) -> CheckReport:
    return CheckReport(tuple(rows), all(r.ok for r in rows))


def _gap_check(machine: GapMachine, labeled_inputs: LabeledInputs, ok: Callable) -> CheckReport:
    """The report of a CheckRow per input: x, its gap, and ok(x, gap, member)."""
    rows = []
    for x, member in labeled_inputs:
        value = gap_of(machine, x)
        rows.append(CheckRow(x, value, ok(x, value, member)))
    return _report(rows)


def check_pp(machine: GapMachine, labeled_inputs: LabeledInputs) -> CheckReport:
    """Members need positive gap, non-members negative; zero always fails."""
    return _gap_check(machine, labeled_inputs, lambda _x, v, member: v > 0 if member else v < 0)


def check_lwpp(cert: ClassCertificate, labeled_inputs: LabeledInputs) -> CheckReport:
    """Members need gap exactly g(len(x)); non-members exactly 0."""

    def ok(x: str, value: int, member: bool) -> bool:
        target = cert.g_value(len(x))  # read for non-members too, so a bad tally refuses
        return value == (target if member else 0)

    return _gap_check(cert.f, labeled_inputs, ok)


def check_awpp(
    cert: ClassCertificate, labeled_inputs: LabeledInputs, m: int
) -> CheckReport:
    """Amplified-threshold check at padding m, cleared-denominator integers.

    Members need 2**q * f >= (2**q - 1) * g, non-members 2**q * f <= g, and
    every value must lie in [0, g].  The closed interval admits the exact
    0 and g endpoints reached by error-free machines.
    """
    rows = []
    for x, member in labeled_inputs:
        if m < len(x):
            raise StructuralError(f"padding m={m} shorter than input {x!r}")
        value = gap_of(cert.f, pair(x, "1" * m))
        g = cert.g_value(m)
        scale = 1 << cert.q_value(m)
        if member:
            threshold_ok = scale * value >= (scale - 1) * g
        else:
            threshold_ok = scale * value <= g
        rows.append(AwppRow(x, value, g, threshold_ok, 0 <= value <= g))
    return _report(rows)


def check_ceqp(machine: GapMachine, labeled_inputs: LabeledInputs) -> CheckReport:
    """Exact-zero characterization: in the language iff the gap is zero."""
    return _gap_check(machine, labeled_inputs, lambda _x, v, member: (v == 0) == member)


def bqp_to_awpp(
    family: MachineFamily,
    q: Sequence[int],
    labeled_inputs: Sequence[tuple[str, bool]],
    paddings: Sequence[int],
) -> ClassCertificate:
    """Certificate with f the squared-amplitude machine and g(m) = 5**(2 t(m)).

    Requires the amplified promise: member probability at least
    1 - 2**-q(m), non-member at most 2**-q(m), exactly, at every tested
    padding.  A violating (x, m) refuses the certificate as the witness.
    """
    q = tuple(q)
    for x, member in labeled_inputs:
        for m in paddings:
            prob = accept_probability(family.system(x, m)).as_fraction()
            error = 1 - prob if member else prob
            if error > Fraction(1, 1 << eval_poly(q, m)):
                raise PromiseViolation(
                    f"promise fails at x={x!r}, m={m}: error {error}",
                    witness=(x, m, prob),
                )

    def system_at_padding(z: str) -> UnitarySystem:
        x, padding = unpair(z)
        if padding.strip("1"):
            raise StructuralError("padding must be a block of ones")
        return family.system(x, len(padding))

    return ClassCertificate(_compiled(system_at_padding), lambda m: 5 ** (2 * family.t(m)), q)


def tree_from_json(node) -> Node:
    """Decode the nested-array tree form: "accept", "reject", or [child, ...].

    One walk over the document checks each node, counts the branches and
    edges and finds the depth, so a tree over DEFAULT_BRANCH_BOUND is
    refused before any node is built, and one deeper than MAX_TREE_DEPTH
    before the recursive decoding starts.
    """
    stored, deepest, stack = 0, 0, [iter((node,))]  # per open list, its children left to walk
    while stack:
        for item in stack[-1]:
            if type(item) is list and item:
                stored += 1 + len(item)
                if stored > DEFAULT_BRANCH_BOUND:
                    raise bound_error("tree branches and edges", stored)
                stack.append(reversed(item))  # its children, last first, before its siblings
                if len(stack) > deepest:
                    deepest = len(stack)
                break
            if item != "accept" and item != "reject":
                raise ParseError(f"bad tree node {item!r}")
        else:
            stack.pop()
    deepest -= 1  # the root's own entry is not a level
    if deepest > MAX_TREE_DEPTH:
        raise ResourceError("tree depth", deepest, MAX_TREE_DEPTH, "gapp.MAX_TREE_DEPTH")
    return _decoded(node)


def _decoded(node) -> Node:
    if type(node) is list:
        return Branch(tuple(_decoded(child) for child in node))
    return ACCEPT if node == "accept" else REJECT


def tree_to_json(node: Node, on_accept="accept", on_reject="reject"):
    """Nested-array unfolding; a product's right and a negative weight negate by swapping labels."""
    if isinstance(node, trees.Leaf):
        return on_accept if trees.gap(node) > 0 else on_reject
    if isinstance(node, Product):
        right = node.right
        return tree_to_json(
            node.left,
            tree_to_json(right, on_accept, on_reject),
            tree_to_json(right, on_reject, on_accept),
        )
    weights = node.weights or (1,) * len(node.children)
    labels = (on_accept, on_reject), (on_reject, on_accept)
    docs = [tree_to_json(child, *labels[w < 0]) for child, w in zip(node.children, weights)]
    return [doc for doc, w in zip(docs, weights) for _ in range(abs(w))]


# The two closed shapes of a gap-machine file, chosen by its "kind".
GAP_MACHINE_FILES = {
    "tree": {"kind": model.STRING, "tree": ("a tree", tree_from_json)},
    "system": {"kind": model.STRING, "path": model.STRING},
}


def load_gap_machine(path: str) -> GapMachine:
    """Load a corpus machine: an explicit tree or a compiled system reference."""
    return model.load_file(path, read_gap_machine, path)[0]


def read_gap_machine(doc: dict, path: str) -> GapMachine:
    """The machine of the gap-machine object doc read from the file at path.

    A system reference's file is read and compiled in its own load_file, so
    its refusals, the system_tree cap included, name it after path.
    """
    match doc:
        case {"kind": "tree"}:
            tree = model.read_fields(doc, GAP_MACHINE_FILES["tree"])["tree"]
            return GapMachine(lambda _x: tree)
        case {"kind": "system"}:
            target = model.read_fields(doc, GAP_MACHINE_FILES["system"])["path"]
            target = os.path.join(os.path.dirname(path), target)
            return model.load_file(
                target, lambda d: system_to_gap_machine(model.build_system(d))
            )[0]
    raise ParseError("field 'kind' must be 'tree' or 'system'")


def eqp_to_lwpp(
    family: MachineFamily, labeled_inputs: Sequence[tuple[str, bool]]
) -> ClassCertificate:
    """Certificate with g(n) = 5**(2 t(n)) for an exactly zero-error family.

    Any tested input with probability strictly between 0 and 1 refuses the
    certificate with that input as the witness.
    """
    for x, member in labeled_inputs:
        prob = accept_probability(family.system(x))
        if not (prob.is_one() if member else prob.is_zero()):
            raise PromiseViolation(
                f"{'member' if member else 'non-member'} {x!r} accepted with probability "
                f"{prob.as_fraction()} != {int(member)}",
                witness=(x, prob),
            )
    return ClassCertificate(_compiled(family.system), lambda n: 5 ** (2 * family.t(n)))
