"""Inlining an amplified-threshold approximator in place of oracle queries.

An oracle gap machine asks the same number of queries on every path, with
the next query string determined by the answers so far.  Replacing each
query by a weighted run of the approximator's machine keeps the composed
object an ordinary gap machine and, when the approximation error is small
against the path count, preserves the sign of the gap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import trees
from .errors import ModelError, ParseError
from .gapp import (
    DEFAULT_BRANCH_BOUND,
    ClassCertificate,
    GapMachine,
    bound_error,
    check_awpp,
    gap_of,
    tree_from_json,
)
from .model import _is_int, load_json_object
from .poly import eval_poly
from .strings import pair, unpair
from .trees import Branch, Node

Answers = tuple[bool, ...]

# Bundle exponents (log2 g and q at a listed input) above this are refused
# before any power of two is built.
MAX_BUNDLE_EXPONENT = 1 << 16


@dataclass(frozen=True)
class OracleGapMachine:
    """Query-driven machine: k queries per path, then a computation tree.

    next_query(x, answers_so_far) names the string asked next; finish(x,
    answers) is the tree once all k answers are fixed.  Machines whose
    paths would ask different numbers of queries are rejected up front by
    the loaders instead of being padded here.
    """

    query_count: int
    next_query: Callable[[str, Answers], str]
    finish: Callable[[str, Answers], Node]

    def answer_trace(self, x: str, oracle: Callable[[str], bool]) -> tuple[
        tuple[str, ...], Answers
    ]:
        """Queries asked and answers received against a ground-truth oracle."""
        queries: list[str] = []
        answers: list[bool] = []
        for _ in range(self.query_count):
            y = self.next_query(x, tuple(answers))
            queries.append(y)
            answers.append(bool(oracle(y)))
        return tuple(queries), tuple(answers)


@dataclass(frozen=True)
class LownessInstance:
    """An oracle machine, its language, and an approximator certificate."""

    machine: OracleGapMachine
    oracle: frozenset[str]
    approximator: ClassCertificate
    q_coeffs: tuple[int, ...]

    def q_value(self, n: int) -> int:
        return eval_poly(self.q_coeffs, n)


def true_gap(instance: LownessInstance, x: str) -> int:
    """Gap of the machine run with ground-truth oracle answers."""
    _, answers = instance.machine.answer_trace(x, lambda y: y in instance.oracle)
    return trees.gap(instance.machine.finish(x, answers))


def _approximator_tree(instance: LownessInstance, y: str, m: int) -> Node:
    return instance.approximator.f.evaluator(pair(y, "1" * m))


def inline_construction(instance: LownessInstance, x: str) -> GapMachine:
    """Machine with each query replaced by a weighted run of the approximator.

    A query for y with continuations T_yes and T_no becomes three branches
    whose gaps add to f(y) * gap(T_yes) + (g - f(y)) * gap(T_no): the
    approximator tree feeding T_yes (rejects negated), one branch repeating
    T_no g times, and the approximator tree feeding negated T_no.  Correct
    answers thus carry weight at least (1 - 2**-q) g and wrong ones at most
    2**-q g.

    The finish and approximator trees are evaluated first.  A query node
    stores at most two copies of its approximator tree, its continuations
    and one negated copy of each, and six more nodes and edges, so their
    stored sizes bound the result's.  Over DEFAULT_BRANCH_BOUND the
    construction is refused before any node is built.
    """
    machine = instance.machine
    m = len(x)
    g = instance.approximator.g_value(m)
    k = machine.query_count

    @functools.cache
    def part(answers: Answers) -> Node:
        """The finish tree after k answers, else the next query's approximator tree."""
        if len(answers) == k:
            return machine.finish(x, answers)
        return _approximator_tree(instance, machine.next_query(x, answers), m)

    def stored_bound(answers: Answers) -> int:
        """Nodes and edges that build(answers) stores, at most."""
        size = trees.stored_size(part(answers))
        if len(answers) == k:
            return size
        below = stored_bound(answers + (True,)) + stored_bound(answers + (False,))
        return 2 * (size + below) + 6

    if (size := stored_bound(())) > DEFAULT_BRANCH_BOUND:
        raise bound_error(
            "inline_construction stored nodes and edges (upper bound)",
            size,
            DEFAULT_BRANCH_BOUND,
        )

    def build(answers: Answers) -> Node:
        if len(answers) == k:
            return part(answers)
        t_yes = build(answers + (True,))
        t_no = build(answers + (False,))
        f_tree = part(answers)
        yes_part = trees.substituted(f_tree, t_yes, trees.negated(t_yes))
        no_block = Branch((t_no,), g)
        no_correction = trees.substituted(f_tree, trees.negated(t_no), t_no)
        return Branch((yes_part, no_block, no_correction))

    tree = build(())
    return GapMachine(lambda _x: tree)


def path_count(instance: LownessInstance, x: str) -> int:
    """Largest leaf count of the machine's tree over all answer patterns."""
    machine = instance.machine
    worst = 0
    for bits in range(1 << machine.query_count):
        answers = tuple(bool((bits >> i) & 1) for i in range(machine.query_count))
        worst = max(worst, trees.unfolded_leaves(machine.finish(x, answers)))
    return worst


@dataclass(frozen=True)
class QueryAudit:
    string: str
    member: bool
    f_value: int
    tally: int
    majority_correct: bool  # approximator on the right side of g/2


@dataclass(frozen=True)
class SignRow:
    x: str
    true_gap: int
    inlined_gap: int
    sign_ok: bool
    path_count: int
    paths_within_budget: bool  # path_count**2 < 2**q(len(x))
    queries: tuple[QueryAudit, ...]
    main_weight: int  # product of correct-answer weights
    error_mass: int  # |inlined - main_weight * true|
    error_budget: Fraction  # (2**k - 1) * paths * g**k / 2**q
    error_within_budget: bool

    @property
    def ok(self) -> bool:
        return self.sign_ok and self.paths_within_budget


@dataclass(frozen=True)
class SignReport:
    rows: tuple[SignRow, ...]
    ok: bool

    def flips(self) -> tuple[SignRow, ...]:
        return tuple(row for row in self.rows if not row.sign_ok)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def verify_sign_preservation(
    instance: LownessInstance, inputs: Iterable[str]
) -> SignReport:
    """Compare true and inlined gap signs, with exact error accounting.

    The per-query error bound 2**-q * g is multiplied out against the path
    count so the report shows the slack actually consumed; rows for
    instances that break the path-count budget are still evaluated, which
    is how the adversarial suite exhibits its sign flips.
    """
    machine = instance.machine
    rows = []
    for x in inputs:
        n = len(x)
        q = instance.q_value(n)
        g = instance.approximator.g_value(n)
        k = machine.query_count
        queries, answers = machine.answer_trace(x, lambda y: y in instance.oracle)
        tgap = true_gap(instance, x)
        igap = gap_of(inline_construction(instance, x), x)
        audits = []
        main_weight = 1
        for y, answer in zip(queries, answers):
            f_value = trees.gap(_approximator_tree(instance, y, n))
            main_weight *= f_value if answer else g - f_value
            audits.append(
                QueryAudit(
                    string=y,
                    member=y in instance.oracle,
                    f_value=f_value,
                    tally=g,
                    majority_correct=(2 * f_value >= g) == (y in instance.oracle),
                )
            )
        paths = path_count(instance, x)
        error_mass = abs(igap - main_weight * tgap)
        budget = Fraction(((1 << k) - 1) * paths * g**k, 1 << q)
        rows.append(
            SignRow(
                x=x,
                true_gap=tgap,
                inlined_gap=igap,
                sign_ok=_sign(igap) == _sign(tgap),
                path_count=paths,
                paths_within_budget=paths * paths < (1 << q),
                queries=tuple(audits),
                main_weight=main_weight,
                error_mass=error_mass,
                error_budget=budget,
                error_within_budget=Fraction(error_mass) <= budget,
            )
        )
    return SignReport(tuple(rows), all(r.ok for r in rows))


def near_extreme_certificate(
    members: frozenset[str],
    g_pow2: Sequence[int],
    q_coeffs: Sequence[int],
    member_value: Callable[[int], int] | None = None,
) -> ClassCertificate:
    """Table approximator: value g(m) - 1 on members, 1 elsewhere, g(m) = 2**poly(m).

    member_value overrides the member row, which is how the adversarial
    suite weakens the approximation while keeping the same shape.
    """
    g_pow2 = tuple(g_pow2)

    def g(m: int) -> int:
        return 1 << eval_poly(g_pow2, m)

    def evaluator(z: str) -> Node:
        y, padding = unpair(z)
        m = len(padding)
        if y in members:
            value = (g(m) - 1) if member_value is None else member_value(g(m))
        else:
            value = 1
        if value < 1:
            raise ModelError(f"table value {value} must be positive")
        return Branch((trees.ACCEPT,), value)

    return ClassCertificate(
        kind="awpp", f=GapMachine(evaluator), g=g, q_coeffs=tuple(q_coeffs)
    )


def near_extreme_instance(
    machine: OracleGapMachine,
    oracle: frozenset[str],
    g_pow2: Sequence[int],
    q_coeffs: Sequence[int],
    member_value: Callable[[int], int] | None = None,
) -> LownessInstance:
    """Instance whose approximator is the near-extreme table for the oracle set."""
    cert = near_extreme_certificate(oracle, g_pow2, q_coeffs, member_value)
    return LownessInstance(machine, oracle, cert, tuple(q_coeffs))


def machine_from_tables(
    query_count: int,
    queries: dict[str, str],
    finish_trees: dict[str, Node],
) -> OracleGapMachine:
    """Input-independent machine from answer-prefix tables.

    Every prefix shorter than query_count must name a query and every full
    answer string must have a tree; anything partial is rejected rather
    than padded, keeping the per-path query count uniform by construction.
    """
    for bits in range(1 << query_count):
        for depth in range(query_count):
            prefix = format(bits, f"0{query_count}b")[:depth] if depth else ""
            if prefix not in queries:
                raise ModelError(f"no query named after answers {prefix!r}")
        full = format(bits, f"0{query_count}b") if query_count else ""
        if full not in finish_trees:
            raise ModelError(f"no computation tree for answers {full!r}")

    def encode(answers: Answers) -> str:
        return "".join("1" if a else "0" for a in answers)

    return OracleGapMachine(
        query_count=query_count,
        next_query=lambda _x, answers: queries[encode(answers)],
        finish=lambda _x, answers: finish_trees[encode(answers)],
    )


def load_instance_bundle(path: str) -> tuple[LownessInstance, tuple[str, ...]]:
    """Read an instance bundle file; returns the instance and its input list."""
    doc = load_json_object(path)
    try:
        table = doc["machine"]
        if not _is_int(table["query_count"]) or table["query_count"] < 0:
            raise ParseError(f"{path}: 'query_count' must be a non-negative integer")
        queries = _object(path, "queries", table["queries"])
        if not all(_is_binary(y) for y in queries.values()):
            raise ParseError(f"{path}: 'queries' values must be binary strings")
        machine = machine_from_tables(
            table["query_count"],
            queries,
            {
                key: tree_from_json(node)
                for key, node in _object(path, "trees", table["trees"]).items()
            },
        )
        cert = doc["certificate"]
        if cert["style"] != "near-extreme":
            raise ParseError(f"unknown certificate style {cert['style']!r}")
        inputs = _binary_strings(path, "inputs", doc["inputs"])
        instance = near_extreme_instance(
            machine,
            frozenset(_binary_strings(path, "oracle", doc["oracle"])),
            _exponents(path, "g_pow2", cert["g_pow2"], inputs),
            _exponents(path, "q", doc["q"], inputs),
        )
        return instance, inputs
    except (KeyError, TypeError, RecursionError) as exc:
        raise ParseError(f"{path}: malformed instance bundle ({exc})") from exc


def _object(path: str, key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: {key!r} must be a JSON object")
    return value


def _exponents(path: str, key: str, value, inputs: Sequence[str]) -> tuple[int, ...]:
    """Polynomial coefficients, refused if the value at any input passes the cap."""
    if not isinstance(value, list) or not all(_is_int(v) and v >= 0 for v in value):
        raise ParseError(f"{path}: {key!r} must be a list of non-negative integers")
    for x in inputs:
        exponent = eval_poly(value, len(x))
        if exponent > MAX_BUNDLE_EXPONENT:
            raise ParseError(
                f"{path}: {key!r} is {Decimal(exponent)} at input {x!r}, above "
                f"the cap of {MAX_BUNDLE_EXPONENT} (lowness.MAX_BUNDLE_EXPONENT)"
            )
    return tuple(value)


def _is_binary(value) -> bool:
    return isinstance(value, str) and not value.strip("01")


def _binary_strings(path: str, key: str, value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(_is_binary(v) for v in value):
        raise ParseError(f"{path}: {key!r} must be a list of binary strings")
    return tuple(value)


def validate_instance(
    instance: LownessInstance, inputs: Sequence[str]
) -> tuple[bool, str]:
    """Check the declared budget and the approximator promise on reachable queries."""
    for x in inputs:
        if path_count(instance, x) ** 2 >= (1 << instance.q_value(len(x))):
            return False, f"path count of {x!r} reaches 2**(q/2)"
        queries, _ = instance.machine.answer_trace(
            x, lambda y: y in instance.oracle
        )
        labeled = [(y, y in instance.oracle) for y in queries]
        report = check_awpp(instance.approximator, labeled, len(x))
        if not report.ok:
            return False, f"approximator promise fails on queries of {x!r}"
    return True, "ok"
