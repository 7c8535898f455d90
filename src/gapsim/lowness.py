"""Inlining an amplified-threshold approximator in place of oracle queries.

An oracle gap machine asks the same number of queries on every path, with
the next query string determined by the answers so far.  Replacing each
query by a weighted run of the approximator's machine keeps the composed
object an ordinary gap machine and, when the approximation error is small
against the path count, preserves the sign of the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import gapp, trees
from .errors import ModelError, ParseError, ResourceError
from .gapp import ClassCertificate, GapMachine, bound_error, check_awpp, tree_from_json
from .model import NAT, NAT_LIST, STRING, eval_poly, kind_of, read_fields
from .strings import is_binary, pair, unpair
from .trees import Branch, Node, Product

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


def true_gap(instance: LownessInstance, x: str) -> int:
    """Gap of the machine run with ground-truth oracle answers."""
    _, answers = instance.machine.answer_trace(x, lambda y: y in instance.oracle)
    return trees.gap(instance.machine.finish(x, answers))


class _Unrolling:
    """The machine on one input over every answer path, each call made once.

    queries maps each answer prefix shorter than k, shortest first, to the
    string asked next; finishes maps each full answer tuple to its tree;
    answers is the path the ground-truth oracle picks.
    """

    def __init__(self, machine: OracleGapMachine, x: str, oracle: frozenset[str]):
        self.queries: dict[Answers, str] = {}
        level: list[Answers] = [()]
        for _ in range(machine.query_count):
            self.queries.update((a, machine.next_query(x, a)) for a in level)
            level = [a + (bit,) for a in level for bit in (True, False)]
        self.finishes = {a: machine.finish(x, a) for a in level}
        self.path_count = max(map(trees.unfolded_leaves, self.finishes.values()))
        self.answers: Answers = ()
        while self.answers in self.queries:
            self.answers += (self.queries[self.answers] in oracle,)

    def inlined(
        self, approximator: ClassCertificate, m: int
    ) -> tuple[Node, dict[Answers, Node]]:
        """inline_construction's tree, and the approximator tree of each prefix."""
        g = approximator.g_value(m)
        f_trees: dict[Answers, Node] = {}
        bound = {a: trees.stored_size(t) for a, t in self.finishes.items()}
        for a, y in reversed(self.queries.items()):
            f_trees[a] = approximator.f.evaluator(pair(y, "1" * m))
            below = bound[a + (True,)] + bound[a + (False,)]
            bound[a] = trees.stored_size(f_trees[a]) + below + 10
        if bound[()] > gapp.DEFAULT_BRANCH_BOUND:  # read per call, as the knob it names
            raise bound_error(
                "inline_construction stored nodes and edges (upper bound)", bound[()]
            )
        built = dict(self.finishes)
        for a, f_tree in f_trees.items():  # deepest prefixes first
            t_yes, t_no = built[a + (True,)], built[a + (False,)]
            built[a] = Branch((Product(f_tree, t_yes), t_no, Product(f_tree, t_no)), (1, g, -1))
        return built[()], f_trees


def inline_construction(instance: LownessInstance, x: str) -> GapMachine:
    """Machine with each query replaced by a weighted run of the approximator.

    A query for y with continuations T_yes and T_no becomes one branch
    whose gap is f(y) * gap(T_yes) + (g - f(y)) * gap(T_no): the
    approximator tree times T_yes at weight 1, T_no at weight g, and the
    approximator tree times T_no at weight -1, each product one node.
    Correct answers thus carry weight at least (1 - 2**-q) g and wrong ones
    at most 2**-q g.

    The machine is unrolled once, and nothing is copied: a query node adds
    10 nodes and edges to its one approximator tree and its continuations
    (two products and the branch); a first bottom-up pass bounds the
    stored size from theirs and refuses over DEFAULT_BRANCH_BOUND before
    any node.
    """
    run = _Unrolling(instance.machine, x, instance.oracle)
    tree, _ = run.inlined(instance.approximator, len(x))
    return GapMachine(lambda _x: tree)


@dataclass(frozen=True)
class SignRow:
    x: str
    true_gap: int
    inlined_gap: int
    sign_ok: bool
    path_count: int
    paths_within_budget: bool  # path_count**2 < 2**q(len(x))
    error_mass: int  # |inlined - w * true|, w the product of correct-answer weights
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


def verify_sign_preservation(
    instance: LownessInstance, inputs: Iterable[str]
) -> SignReport:
    """Compare true and inlined gap signs, with exact error accounting.

    The per-query error bound 2**-q * g is multiplied out against the path
    count so the report shows the slack actually consumed; rows for
    instances that break the path-count budget are still evaluated, which
    is how the adversarial suite exhibits its sign flips.
    """
    rows = []
    for x in inputs:
        n = len(x)
        q = instance.approximator.q_value(n)
        g = instance.approximator.g_value(n)
        k = instance.machine.query_count
        run = _Unrolling(instance.machine, x, instance.oracle)
        tree, f_trees = run.inlined(instance.approximator, n)
        tgap = trees.gap(run.finishes[run.answers])
        igap = trees.gap(tree)
        main_weight = 1
        for i, member in enumerate(run.answers):
            f_value = trees.gap(f_trees[run.answers[:i]])
            main_weight *= f_value if member else g - f_value
        error_mass = abs(igap - main_weight * tgap)
        budget = Fraction(((1 << k) - 1) * run.path_count * g**k, 1 << q)
        rows.append(
            SignRow(
                x=x,
                true_gap=tgap,
                inlined_gap=igap,
                sign_ok=(igap > 0, igap < 0) == (tgap > 0, tgap < 0),
                path_count=run.path_count,
                paths_within_budget=run.path_count**2 < (1 << q),
                error_mass=error_mass,
                error_budget=budget,
                error_within_budget=Fraction(error_mass) <= budget,
            )
        )
    return SignReport(tuple(rows), all(r.ok for r in rows))


def near_extreme_instance(
    machine: OracleGapMachine,
    oracle: frozenset[str],
    g_pow2: Sequence[int],
    q_coeffs: Sequence[int],
    member_value: Callable[[int], int] | None = None,
) -> LownessInstance:
    """Instance whose approximator is the near-extreme table for the oracle set.

    The table has value g(m) - 1 on members of the oracle and 1 elsewhere,
    with g(m) = 2**poly(m).  member_value overrides the member row, which
    is how the adversarial suite weakens the approximation while keeping
    the same shape.
    """
    g_pow2 = tuple(g_pow2)

    def g(m: int) -> int:
        return 1 << eval_poly(g_pow2, m)

    def evaluator(z: str) -> Node:
        y, padding = unpair(z)
        m = len(padding)
        if y in oracle:
            value = (g(m) - 1) if member_value is None else member_value(g(m))
        else:
            value = 1
        if value < 1:
            raise ModelError(f"table value {value} must be positive")
        return Branch((trees.ACCEPT,), (value,))

    cert = ClassCertificate(GapMachine(evaluator), g, tuple(q_coeffs))
    return LownessInstance(machine, oracle, cert)


def machine_from_tables(
    query_count: int,
    queries: dict[str, str],
    finish_trees: dict[str, Node],
) -> OracleGapMachine:
    """Input-independent machine from answer-prefix tables.

    Every prefix shorter than query_count must name a query and every full
    answer string must have a tree; anything partial is rejected rather
    than padded, keeping the per-path query count uniform by construction.
    One unrolling looks every entry up and stops at the first one missing,
    so a short table costs its own size, not 2**query_count.  Keys that no
    answer prefix reaches are refused too.
    """

    def encode(answers: Answers) -> str:
        return "".join("1" if a else "0" for a in answers)

    machine = OracleGapMachine(
        query_count=query_count,
        next_query=lambda _x, answers: queries[encode(answers)],
        finish=lambda _x, answers: finish_trees[encode(answers)],
    )
    try:
        _Unrolling(machine, "", frozenset())
    except KeyError as exc:
        raise ModelError(f"no query or tree for answers {exc.args[0]!r}") from exc
    if len(queries) != (1 << query_count) - 1 or len(finish_trees) != 1 << query_count:
        raise ModelError("tables hold keys that no answer prefix reaches")
    return machine


def _trees(value) -> dict[str, Node]:
    if not isinstance(value, dict):
        raise ParseError()
    return {key: tree_from_json(node) for key, node in value.items()}


BINARY_LIST = kind_of(
    "a list of binary strings", lambda v: type(v) is list and all(map(is_binary, v))
)
BUNDLE_FILE = {
    "machine": {
        "query_count": NAT,
        "queries": kind_of(
            "an object of binary strings",
            lambda v: isinstance(v, dict) and all(map(is_binary, v.values())),
        ),
        "trees": ("an object of trees", _trees),
    },
    "certificate": {"style": STRING, "g_pow2": NAT_LIST},
    "oracle": BINARY_LIST,
    "q": NAT_LIST,
    "inputs": BINARY_LIST,
}


def read_instance_bundle(doc: dict) -> tuple[LownessInstance, tuple[str, ...]]:
    """The instance and the input list of an instance-bundle object."""
    fields = read_fields(doc, BUNDLE_FILE)
    table, cert = fields["machine"], fields["certificate"]
    try:
        machine = machine_from_tables(table["query_count"], table["queries"], table["trees"])
    except ModelError as exc:
        raise ParseError(f"malformed instance bundle ({exc})") from exc
    if cert["style"] != "near-extreme":
        raise ParseError(f"unknown certificate style {cert['style']!r}")
    inputs, g_pow2, q = tuple(fields["inputs"]), tuple(cert["g_pow2"]), tuple(fields["q"])
    for x in inputs:  # exponents are capped before any power of two is built
        for key, coeffs in ("certificate.g_pow2", g_pow2), ("q", q):
            exponent = eval_poly(coeffs, len(x))
            if exponent > MAX_BUNDLE_EXPONENT:
                raise ResourceError(
                    f"input {x!r}: {key!r}", Decimal(exponent), MAX_BUNDLE_EXPONENT,
                    "lowness.MAX_BUNDLE_EXPONENT",
                )
        if eval_poly(g_pow2, len(x)) == 0:  # the table's member value g - 1 must be positive
            raise ParseError(f"log2 g is 0 at input {x!r}; it must be at least 1")
    return near_extreme_instance(machine, frozenset(fields["oracle"]), g_pow2, q), inputs


def validate_instance(
    instance: LownessInstance, inputs: Sequence[str]
) -> tuple[bool, str]:
    """Check the declared budget and the approximator promise on reachable queries."""
    for x in inputs:
        run = _Unrolling(instance.machine, x, instance.oracle)
        if run.path_count**2 >= (1 << instance.approximator.q_value(len(x))):
            return False, f"path count of {x!r} reaches 2**(q/2)"
        labeled = [(run.queries[run.answers[:i]], a) for i, a in enumerate(run.answers)]
        if not check_awpp(instance.approximator, labeled, len(x)).ok:
            return False, f"approximator promise fails on queries of {x!r}"
    return True, "ok"
