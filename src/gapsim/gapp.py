"""Gap machines: finite nondeterministic computations valued by their gap.

A machine maps an input string to a computation tree; its value is the
number of accepting minus rejecting leaves.  The closure combinators below
are machine transformations only: they rearrange trees and never touch the
gap values themselves, so brute-force gap arithmetic stays available as an
independent oracle in the tests.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import trees
from .errors import ParseError, PromiseViolation, ResourceError, StructuralError
from .evolve import accept_probability
from .model import MachineFamily, UnitarySystem, load_json_object, load_system
from .poly import eval_poly
from .strings import index_string, pair, strings_up_to, unpair
from .trees import ACCEPT, REJECT, Branch, Node

DEFAULT_BRANCH_BOUND = 1 << 20


@dataclass(frozen=True)
class GapMachine:
    """Evaluator from input strings to computation trees, with a size guard.

    exp_sum and poly_product refuse over branch_bound before they build;
    builders without a machine refuse over DEFAULT_BRANCH_BOUND.
    """

    evaluator: Callable[[str], Node]
    branch_bound: int = DEFAULT_BRANCH_BOUND


def bound_error(what: str, value, bound: int) -> ResourceError:
    """Refusal of a tree whose size passes its bound, raised before it is built."""
    return ResourceError(
        f"{what} {value} exceeds branch_bound {bound} (raise branch_bound)"
    )


def gap_of(machine: GapMachine, x: str) -> int:
    """Exact gap of the machine's tree on x; the ground truth for every combinator."""
    return trees.gap(machine.evaluator(x))


def negate(machine: GapMachine) -> GapMachine:
    """Machine with every leaf label swapped, so gaps change sign."""
    return GapMachine(
        lambda x: trees.negated(machine.evaluator(x)), machine.branch_bound
    )


def exp_sum(machine: GapMachine, q: Sequence[int]) -> GapMachine:
    """Branch over every y with len(y) <= q(len(x)), then run machine on <x, y>."""
    q = tuple(q)

    def evaluator(x: str) -> Node:
        bound = eval_poly(q, len(x))
        if bound < 0:
            raise StructuralError("negative branching length")
        if (1 << (bound + 1)) - 1 > machine.branch_bound:
            raise bound_error(
                "exp_sum branches", f"2**{bound + 1} - 1", machine.branch_bound
            )
        return Branch(
            tuple(machine.evaluator(pair(x, y)) for y in strings_up_to(bound))
        )

    return GapMachine(evaluator, machine.branch_bound)


def poly_product(machine: GapMachine, q: Sequence[int]) -> GapMachine:
    """Sequential composition computing the product over y = 0 .. q(len(x)).

    Numbers index binary strings canonically.  Each factor is spliced into
    the leaves of the running tree, with the reject side negated so leaf
    label parity tracks the sign of the partial product.
    """
    q = tuple(q)

    def evaluator(x: str) -> Node:
        bound = eval_poly(q, len(x))
        if bound < 0:
            raise StructuralError("negative product range")
        if bound + 1 > machine.branch_bound:
            raise bound_error("poly_product factors", bound + 1, machine.branch_bound)
        factors = [
            machine.evaluator(pair(x, index_string(k))) for k in range(bound + 1)
        ]
        result = factors[0]
        for factor in factors[1:]:
            result = trees.substituted(result, factor, trees.negated(factor))
        return result

    return GapMachine(evaluator, machine.branch_bound)


_ZERO = Branch((ACCEPT, REJECT))


def system_tree(system: UnitarySystem) -> Node:
    """Tree whose gap is the squared accept amplitude of the system.

    A forward pass from the start configuration: after s steps, each
    configuration reached so far holds a pair of subtrees whose gaps are
    plus and minus the signed sum, over the length-s paths from start, of
    the products of edge weights.  A reached configuration pushes its pair
    along its column as |w| repeated children, swapped when w < 0.  Only
    configurations reachable from start are built, and the root keeps only
    those that also reach accept.  The square is the signed product of two
    copies of the accept entry's path sum; an unreached accept gives gap 0.

    Before any node is built, the forward pass runs on the column structure
    alone to count the nodes and edges it will store: two nodes per reached
    configuration and 2|w| edges per column entry.  Over
    DEFAULT_BRANCH_BOUND the system is refused.
    """
    frontier, stored = {system.start}, 0
    for _ in range(system.t_bound):
        entries = [entry for c in frontier for entry in system.column(c)]
        frontier = {r for r, _ in entries}
        stored += 2 * (sum(abs(w) for _, w in entries) + len(frontier))
        if stored > DEFAULT_BRANCH_BOUND:
            raise bound_error(
                "system_tree stored nodes and edges", stored, DEFAULT_BRANCH_BOUND
            )

    layer: dict[int, tuple[Node, Node]] = {system.start: (ACCEPT, REJECT)}
    for _ in range(system.t_bound):
        pushed: dict[int, tuple[list[Node], list[Node]]] = {}
        for c, (pos, neg) in layer.items():
            for r, w in system.column(c):
                same, flipped = pushed.setdefault(r, ([], []))
                a, b = (pos, neg) if w > 0 else (neg, pos)
                same.extend([a] * abs(w))
                flipped.extend([b] * abs(w))
        layer = {
            r: (Branch(tuple(same)), Branch(tuple(flipped)))
            for r, (same, flipped) in pushed.items()
        }
    if system.accept not in layer:
        return _ZERO
    pos, neg = layer[system.accept]
    return trees.substituted(pos, pos, neg)


def system_to_gap_machine(system: UnitarySystem) -> GapMachine:
    """Constant machine whose gap equals the acceptance-probability numerator."""
    tree = system_tree(system)
    return GapMachine(lambda _x: tree)


def _compiled(system_of: Callable[[str], UnitarySystem]) -> GapMachine:
    """Machine compiling the system of each input once; repeats reuse the tree."""
    return GapMachine(functools.cache(lambda z: system_tree(system_of(z))))


CERT_KINDS = ("pp", "lwpp", "awpp", "ceqp")


@dataclass(frozen=True)
class ClassCertificate:
    """The (f, g, q) data instantiating a promise-class definition."""

    kind: str
    f: GapMachine
    g: Callable[[int], int] | None = None
    q_coeffs: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in CERT_KINDS:
            raise StructuralError(f"unknown certificate kind {self.kind!r}")

    def g_value(self, m: int) -> int:
        if self.g is None:
            raise StructuralError(f"{self.kind} certificate has no tally function")
        value = self.g(m)
        if value <= 0:
            raise StructuralError(f"tally g({m}) = {value} must be positive")
        return value

    def q_value(self, m: int) -> int:
        if self.q_coeffs is None:
            raise StructuralError(f"{self.kind} certificate has no polynomial q")
        return eval_poly(self.q_coeffs, m)


@dataclass(frozen=True)
class CheckRow:
    x: str
    member: bool
    value: int
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class CheckReport:
    kind: str
    rows: tuple[CheckRow, ...]
    ok: bool


LabeledInputs = Iterable[tuple[str, bool]]


def check_pp(cert: ClassCertificate, labeled_inputs: LabeledInputs) -> CheckReport:
    """Members need positive gap, non-members negative; zero always fails."""
    rows = []
    for x, member in labeled_inputs:
        value = gap_of(cert.f, x)
        if value == 0:
            rows.append(CheckRow(x, member, value, False, "gap 0 excluded"))
        elif member:
            rows.append(CheckRow(x, member, value, value > 0))
        else:
            rows.append(CheckRow(x, member, value, value < 0))
    return CheckReport("pp", tuple(rows), all(r.ok for r in rows))


def check_lwpp(cert: ClassCertificate, labeled_inputs: LabeledInputs) -> CheckReport:
    """Members need gap exactly g(len(x)); non-members exactly 0."""
    rows = []
    for x, member in labeled_inputs:
        value = gap_of(cert.f, x)
        target = cert.g_value(len(x))
        if member:
            rows.append(CheckRow(x, member, value, value == target, f"target {target}"))
        else:
            rows.append(CheckRow(x, member, value, value == 0))
    return CheckReport("lwpp", tuple(rows), all(r.ok for r in rows))


@dataclass(frozen=True)
class AwppRow:
    x: str
    member: bool
    value: int
    tally: int
    threshold_ok: bool
    in_range: bool
    strict_interior: bool

    @property
    def ok(self) -> bool:
        return self.threshold_ok and self.in_range


@dataclass(frozen=True)
class AwppReport:
    rows: tuple[AwppRow, ...]
    m: int
    ok: bool


def check_awpp(
    cert: ClassCertificate, labeled_inputs: LabeledInputs, m: int
) -> AwppReport:
    """Amplified-threshold check at padding m, cleared-denominator integers.

    Members need 2**q * f >= (2**q - 1) * g, non-members 2**q * f <= g, and
    every value must lie in [0, g].  The closed interval admits the exact
    0 and g endpoints reached by error-free machines; whether the open
    interval 0 < f < g also held is reported per row as strict_interior.
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
        rows.append(
            AwppRow(
                x=x,
                member=member,
                value=value,
                tally=g,
                threshold_ok=threshold_ok,
                in_range=0 <= value <= g,
                strict_interior=0 < value < g,
            )
        )
    return AwppReport(tuple(rows), m, all(r.ok for r in rows))


def check_ceqp(
    subject: GapMachine | MachineFamily, labeled_inputs: LabeledInputs
) -> CheckReport:
    """Exact-zero characterization: in the language iff the value is zero."""
    rows = []
    for x, member in labeled_inputs:
        if isinstance(subject, MachineFamily):
            value = accept_probability(subject.system(x)).numerator
        else:
            value = gap_of(subject, x)
        rows.append(CheckRow(x, member, value, (value == 0) == member))
    return CheckReport("ceqp", tuple(rows), all(r.ok for r in rows))


def bqp_to_awpp(
    family: MachineFamily,
    q: Sequence[int],
    labeled_inputs: Sequence[tuple[str, bool]],
    paddings: Sequence[int] | None = None,
) -> ClassCertificate:
    """Certificate with f the squared-amplitude machine and g(m) = 5**(2 t(m)).

    Requires the amplified promise: member probability at least
    1 - 2**-q(m), non-member at most 2**-q(m), exactly, at every tested
    padding.  A violating (x, m) refuses the certificate as the witness.
    """
    q = tuple(q)
    if paddings is None:
        paddings = [max((len(x) for x, _ in labeled_inputs), default=0)]
    for x, member in labeled_inputs:
        for m in paddings:
            if m < len(x):
                continue
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

    return ClassCertificate(
        kind="awpp",
        f=_compiled(system_at_padding),
        g=lambda m: 5 ** (2 * family.t(m)),
        q_coeffs=q,
    )


def tree_from_json(node) -> Node:
    """Decode the nested-array tree form: "accept", "reject", or [child, ...].

    The branches and edges of the document are counted first, and a tree
    over DEFAULT_BRANCH_BOUND is refused before any node is built.
    """
    stored, stack = 0, [node]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stored += 1 + len(item)
            if stored > DEFAULT_BRANCH_BOUND:
                raise bound_error(
                    "tree branches and edges", stored, DEFAULT_BRANCH_BOUND
                )
            stack.extend(item)
    return _decoded(node)


def _decoded(node) -> Node:
    if node == "accept":
        return ACCEPT
    if node == "reject":
        return REJECT
    if isinstance(node, list):
        if not node:
            raise ParseError("a branch needs at least one child")
        return Branch(tuple(_decoded(child) for child in node))
    raise ParseError(f"bad tree node {node!r}")


def tree_to_json(node: Node):
    if isinstance(node, trees.Leaf):
        return "accept" if node.accepting else "reject"
    return [tree_to_json(child) for child in node.children] * node.count


def load_gap_machine(path: str) -> GapMachine:
    """Load a corpus machine: an explicit tree or a compiled system reference."""
    doc = load_json_object(path)
    kind = doc.get("kind")
    if kind == "tree":
        try:
            tree = tree_from_json(doc.get("tree"))
        except RecursionError as exc:
            raise ParseError(f"{path}: tree nested too deeply") from exc
        return GapMachine(lambda _x: tree)
    if kind == "system":
        target = doc.get("path")
        if not isinstance(target, str):
            raise ParseError(f"{path}: a system reference needs a string 'path'")
        return system_to_gap_machine(
            load_system(os.path.join(os.path.dirname(path), target))
        )
    raise ParseError(f"{path}: kind must be 'tree' or 'system'")


def eqp_to_lwpp(
    family: MachineFamily, labeled_inputs: Sequence[tuple[str, bool]]
) -> ClassCertificate:
    """Certificate with g(n) = 5**(2 t(n)) for an exactly zero-error family.

    Any tested input with probability strictly between 0 and 1 refuses the
    certificate with that input as the witness.
    """
    for x, member in labeled_inputs:
        prob = accept_probability(family.system(x))
        if member and not prob.is_one():
            raise PromiseViolation(
                f"member {x!r} accepted with probability {prob.as_fraction()} != 1",
                witness=(x, prob),
            )
        if not member and not prob.is_zero():
            raise PromiseViolation(
                f"non-member {x!r} accepted with probability {prob.as_fraction()} != 0",
                witness=(x, prob),
            )
    return ClassCertificate(
        kind="lwpp",
        f=_compiled(family.system),
        g=lambda n: 5 ** (2 * family.t(n)),
    )
