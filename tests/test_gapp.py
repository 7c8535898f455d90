import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsim import gapp, suites, trees
from gapsim.corpus import (
    BLOCK_REFLECT,
    amplified_family,
    cycle_system,
    gap_machine_corpus,
    leaky_family,
    rotation_system,
    unitary_corpus,
    zero_error_family,
)
from gapsim.errors import DecodeError, ParseError, PromiseViolation, ResourceError, StructuralError
from gapsim.evolve import accept_probability, path_sum
from gapsim.gapp import (
    ClassCertificate,
    GapMachine,
    bqp_to_awpp,
    check_awpp,
    check_ceqp,
    check_lwpp,
    check_pp,
    eqp_to_lwpp,
    exp_sum,
    gap_of,
    load_gap_machine,
    negate,
    poly_product,
    system_to_gap_machine,
    system_tree,
    tree_from_json,
    tree_to_json,
)
from gapsim.model import make_system
from gapsim.strings import index_string, pair, strings_up_to, unpair
from gapsim.trees import ACCEPT, REJECT, Branch, _walk, gap, stored_size, unfolded_leaves


def constant_machine(value):
    children = [ACCEPT] * value if value >= 0 else [REJECT] * -value
    tree = Branch(tuple(children) or (ACCEPT, REJECT))
    return GapMachine(lambda x: tree)


def table_machine(fn):
    """Gap given by fn on the second pair component (the combinator's index)."""

    def evaluator(z):
        _, y = unpair(z)
        value = fn(y)
        children = [ACCEPT] * value if value >= 0 else [REJECT] * -value
        return Branch(tuple(children) or (ACCEPT, REJECT))

    return GapMachine(evaluator)


def test_negate_examples():
    machine = constant_machine(2)
    assert gap_of(negate(machine), "") == -2
    assert gap_of(negate(constant_machine(0)), "") == 0
    assert gap_of(negate(constant_machine(-4)), "") == 4


def test_negate_is_involution_on_machines():
    machine = gap_machine_corpus()[1][1]
    double = negate(negate(machine))
    for x in ("", "0", "1101"):
        assert gap_of(double, x) == gap_of(machine, x)


def test_exp_sum_counts_short_strings():
    # gap 1 on every input: the sum counts {empty, 0, 1}
    ones = GapMachine(lambda z: ACCEPT)
    assert gap_of(exp_sum(ones, (1,)), "") == 3


def test_exp_sum_zero_machine():
    zero = constant_machine(0)
    assert gap_of(exp_sum(zero, (2,)), "10") == 0


def test_exp_sum_singleton():
    machine = table_machine(lambda y: 5 if y == "" else 99)
    assert gap_of(exp_sum(machine, (0,)), "11") == 5


def test_poly_product_two_factors():
    machine = table_machine(lambda y: {"": 2, "0": 3}.get(y, 1))
    assert gap_of(poly_product(machine, (1,)), "") == 6


def test_poly_product_annihilates():
    machine = table_machine(lambda y: {"": 2, "0": 0}.get(y, 1))
    assert gap_of(poly_product(machine, (1,)), "") == 0


def test_poly_product_signs():
    machine = table_machine(lambda y: -1)
    assert gap_of(poly_product(machine, (2,)), "") == -1  # three factors of -1


@pytest.mark.parametrize(
    "combinator,refusal",
    [(exp_sum, "negative branching length"), (poly_product, "negative product range")],
)
def test_combinators_refuse_a_negative_length(combinator, refusal):
    machine = combinator(GapMachine(lambda z: ACCEPT), (-1,))  # q(n) = -1
    with pytest.raises(StructuralError, match=f"^{refusal}$"):
        gap_of(machine, "")


def recording_machine():
    """Machine of gap 1 everywhere that records every input it is run on."""
    seen = []

    def evaluator(z):
        seen.append(z)
        return ACCEPT

    return GapMachine(evaluator), seen


@pytest.mark.parametrize("x", ["", "0", "1101"])
@pytest.mark.parametrize("q", range(5))
def test_combinators_run_the_machine_on_each_pair_in_order(x, q):
    machine, seen = recording_machine()
    exp_sum(machine, (q,)).evaluator(x)
    assert seen == [pair(x, y) for y in strings_up_to(q)]
    seen.clear()
    poly_product(machine, (q,)).evaluator(x)
    assert seen == [pair(x, index_string(k)) for k in range(q + 1)]


@pytest.mark.parametrize("combinator", [exp_sum, poly_product])
def test_combinators_refuse_a_non_binary_x_before_any_run(combinator):
    machine, seen = recording_machine()
    with pytest.raises(DecodeError, match="not a binary string"):
        combinator(machine, (2,)).evaluator("01a")
    assert seen == []


@settings(deadline=None)
@given(
    x=st.text(alphabet="01", max_size=5),
    q=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_combinators_match_value_arithmetic(x, q, seed):
    def fn(y):
        return ((hash((seed, y)) % 7) - 3) or 2

    machine = table_machine(fn)
    want_sum = sum(gap_of(machine, pair(x, y)) for y in strings_up_to(q))
    assert gap_of(exp_sum(machine, (q,)), x) == want_sum
    want_product = 1
    for k in range(q + 1):
        want_product *= gap_of(machine, pair(x, index_string(k)))
    assert gap_of(poly_product(machine, (q,)), x) == want_product


def test_closure_suite_reports_combinator_faults(monkeypatch):
    # the suite memoizes each machine's evaluator; a combinator that asks
    # for a wrong code, or weights its child wrongly, must still mismatch
    codes = gapp.pair_codes
    monkeypatch.setattr(gapp, "pair_codes", lambda x, count: list(codes(x, count + 1))[1:])
    ok, results = suites.run_closure()
    assert not ok
    assert {m["op"] for m in results["mismatches"]} == {"exp_sum", "poly_product"}
    monkeypatch.setattr(gapp, "pair_codes", codes)

    def unsigned(machine):
        return GapMachine(lambda x: Branch((machine.evaluator(x),), (1,)))

    monkeypatch.setattr(suites, "negate", unsigned)
    ok, results = suites.run_closure()
    assert not ok
    assert {m["op"] for m in results["mismatches"]} == {"negate"}


def test_certificate_suites_fail_when_the_leaky_family_is_certified(monkeypatch):
    monkeypatch.setattr(suites.corpus, "leaky_family", zero_error_family)
    for run in (suites.run_awpp, suites.run_lwpp):
        ok, results = run()
        assert not ok
        assert results["leaky_refused"] == {"ok": False}


def test_system_machines_reproduce_numerators():
    rotation = rotation_system(BLOCK_REFLECT, 0, 1, 1)
    assert gap_of(system_to_gap_machine(rotation), "") == 16
    flat = rotation_system(BLOCK_REFLECT, 0, 1, 2)
    assert gap_of(system_to_gap_machine(flat), "") == 0
    ident = make_system(1, [(0, 0, 5)], 0, 0, 4)
    assert gap_of(system_to_gap_machine(ident), "") == 25**4


@pytest.mark.parametrize("name,system", unitary_corpus(), ids=[n for n, _ in unitary_corpus()])
def test_round_trip_on_corpus(name, system):
    assert gap_of(system_to_gap_machine(system), "") == accept_probability(system).numerator


def _successors(system):
    return {c: [r for r, _ in system.columns[c]] for c in range(system.n_configs)}


def pb_system(seed, n, t, banded, accept_reachable):
    """V = P.B: 2x2 fifth-integer blocks B, then a cyclic shift or random permutation P.

    A reachable accept ends a random walk of length t from start; an
    unreachable one lies outside the step-t forward cone when there is one.
    """
    rng = random.Random(seed)
    entries = []
    for a in range(0, n, 2):
        x, y = rng.choice(((3, 4), (4, 3), (5, 0)))
        x, y, sign = x * rng.choice((1, -1)), y * rng.choice((1, -1)), rng.choice((1, -1))
        block = [(a, a, x), (a + 1, a, y), (a, a + 1, -sign * y), (a + 1, a + 1, sign * x)]
        entries.extend(e for e in block if e[2])
    shift = rng.choice((1, 3))
    perm = [(i + shift) % n for i in range(n)] if banded else rng.sample(range(n), n)
    entries = [(perm[r], c, w) for r, c, w in entries]
    start = rng.randrange(n)
    system = make_system(n, entries, start, start, t)
    successors = _successors(system)
    cone = {start}
    for _ in range(t):
        cone = {r for c in cone for r in successors[c]}
    outside = sorted(set(range(n)) - cone)
    if accept_reachable or not outside:
        accept = start
        for _ in range(t):
            accept = rng.choice(successors[accept])
    else:
        accept = rng.choice(outside)
    return make_system(n, entries, start, accept, t)


def corridor_pairs(system):
    """(config, step) pairs lying on some length-t path from start to accept."""
    successors = _successors(system)
    forward = [{system.start}]
    for _ in range(system.t_bound):
        forward.append({r for c in forward[-1] for r in successors[c]})
    backward = {system.accept}
    total = 0
    for step in range(system.t_bound, -1, -1):
        total += len(forward[step] & backward)
        backward = {c for c in range(system.n_configs) if set(successors[c]) & backward}
    return total


pb_systems = st.builds(
    pb_system,
    st.integers(0, 2**32),
    st.sampled_from([2, 4, 6, 8, 12, 16]),
    st.integers(0, 8),
    st.booleans(),
    st.booleans(),
)


@settings(deadline=None, max_examples=60)
@given(system=pb_systems)
def test_system_tree_gap_is_the_squared_amplitude(system):
    path_square = path_sum(system, system.t_bound).entries[system.accept] ** 2
    assert gap(system_tree(system)) == accept_probability(system).numerator == path_square


@settings(deadline=None, max_examples=60)
@given(system=pb_systems)
def test_system_tree_stays_inside_the_corridor(system):
    size = len(_walk(system_tree(system))[0])  # a failing assert must not repr the DAG
    assert size <= corridor_pairs(system) + 3


def cone_layers(tree):
    """The distinct nodes under the square's factor by depth below it: depth d is step t - d."""
    layers, layer = [], [tree.left]
    while layer:
        layers.append(layer)
        below = {id(c): c for node in layer if isinstance(node, Branch) for c in node.children}
        layer = list(below.values())
    return layers


def assert_layer_bits_law(system):
    """Each branch of the step-s cone layer has |gap| <= 5**s: a scaled amplitude.

    So the ints that a layer of k nodes stores have at most k times the
    bits of 5**s, which bounds a tree's bits before it is built.
    """
    tree = system_tree(system)
    if not isinstance(tree, trees.Product):  # an unreached accept: the gap-0 tree
        return
    layers = cone_layers(tree)
    assert len(layers) == system.t_bound + 1  # down to the start's accept leaf at step 0
    for depth, layer in enumerate(layers):
        bound = 5 ** (system.t_bound - depth)
        assert all(abs(node.gap) <= bound for node in layer)
        assert sum(node.gap.bit_length() for node in layer) <= len(layer) * bound.bit_length()


@settings(deadline=None, max_examples=60)
@given(system=pb_systems)
def test_cone_layers_store_at_most_the_amplitude_bits(system):
    assert_layer_bits_law(system)


def test_a_long_rotation_cone_stores_at_most_the_amplitude_bits():
    assert_layer_bits_law(rotation_system(BLOCK_REFLECT, 0, 1, 2000))


@settings(deadline=None, max_examples=60)
@given(system=pb_systems)
def test_system_tree_cap_bounds_the_tree_it_builds(system):
    size = stored_size(system_tree(system))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gapp, "DEFAULT_BRANCH_BOUND", size - 1)
        with pytest.raises(ResourceError, match="^system_tree stored nodes and edges"):
            system_tree(system)


def forward_frontier_total(system):
    """(sum of |F_s| over s < t, F_t), F_s the configs reached from start in s steps."""
    frontier, total = {system.start}, 0
    for _ in range(system.t_bound):
        total += len(frontier)
        frontier = {r for c in frontier for r, _ in system.columns[c]}
    return total, frontier


@settings(deadline=None, max_examples=60)
@given(system=pb_systems)
def test_system_tree_pre_count_is_the_stored_size(system):
    """The cap admits the tree exactly when it holds both the tree and the frontiers."""
    size = stored_size(system_tree(system))
    total, last = forward_frontier_total(system)
    bound = max(size, total) if system.accept in last else size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gapp, "DEFAULT_BRANCH_BOUND", bound)
        again = stored_size(system_tree(system))  # not refused
        patch.setattr(gapp, "DEFAULT_BRANCH_BOUND", bound - 1)
        with pytest.raises(ResourceError, match="^system_tree stored nodes and edges"):
            system_tree(system)
    assert again == size


def forward_pass_tree(system):
    """The square built over every row reached from start, read from the entries.

    Each reached row is one branch over its reached sources, weighted by the
    signed entries.  Rows that never reach accept are built too; they are
    garbage once the root is made, so the DAG under the root is the cone's.
    """
    sources = {}
    for r, c, w in sorted(system.entries, key=lambda e: e[1]):
        sources.setdefault(r, []).append((c, w))
    layer = {system.start: ACCEPT}
    for _ in range(system.t_bound):
        pushed = {}
        for r, row in sources.items():
            read = [(layer[c], w) for c, w in row if c in layer]
            if read:
                children = tuple(node for node, _ in read)
                pushed[r] = Branch(children, tuple(w for _, w in read))
        layer = pushed
    if system.accept not in layer:
        return Branch((ACCEPT, REJECT))
    root = layer[system.accept]
    return trees.Product(root, root)


def same_dag(a, b, matched):
    """Node-for-node equality, memoized on the pairs of nodes already matched."""
    if (id(a), id(b)) in matched:
        return True
    leaves = isinstance(a, trees.Leaf), isinstance(b, trees.Leaf)
    if any(leaves):
        return all(leaves) and a.gap == b.gap
    products = isinstance(a, trees.Product), isinstance(b, trees.Product)
    if any(products):
        if not all(products):
            return False
        pairs = [(a.left, b.left), (a.right, b.right)]
    elif a.weights != b.weights or len(a.children) != len(b.children):
        return False
    else:
        pairs = zip(a.children, b.children)
    if not all(same_dag(x, y, matched) for x, y in pairs):
        return False
    matched.add((id(a), id(b)))
    return True


@settings(deadline=None, max_examples=60)
@given(system=pb_systems)
def test_system_tree_is_the_forward_pass_dag(system):
    cone, forward = system_tree(system), forward_pass_tree(system)
    assert same_dag(cone, forward, set())  # a failing assert must not repr the DAG
    assert len(_walk(cone)[0]) == len(_walk(forward)[0])
    assert stored_size(cone) == stored_size(forward)


# Col 0 -> row 1 at 5, col 3 -> row 0 at -5, and the pair on cols (1, 2) and
# rows (2, 3): row 2 reads them at (3, 4), row 3 at (4, -3).  From start 0 the
# frontiers are {0}, {1}, {2, 3}, {0, 2, 3}, then every row, so a row of the
# pair reads its first column alone at step 2, its second alone at step 3 and
# both from step 5.
_ROW_FORM_ENTRIES = [(0, 3, -5), (1, 0, 5), (2, 1, 3), (2, 2, 4), (3, 1, 4), (3, 2, -3)]


@pytest.mark.parametrize(
    "accept, t, weights",
    [(0, 3, (-5,)), (1, 1, (5,)), (2, 2, (3,)), (3, 2, (4,)), (2, 3, (4,)), (3, 3, (-3,)),
     (2, 5, (3, 4)), (3, 5, (4, -3))],
    ids=["single-5", "single+5", "first", "first-b", "second", "second-b", "both", "both-b"],
)
def test_system_tree_builds_each_row_form(accept, t, weights):
    system = make_system(4, _ROW_FORM_ENTRIES, 0, accept, t)
    tree, forward = system_tree(system), forward_pass_tree(system)
    assert tree.left.weights == weights  # the accept row's form
    assert same_dag(tree, forward, set())
    size = stored_size(tree)
    total, _ = forward_frontier_total(system)
    assert total < size  # so a bound just under the size meets the cone's pre-count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gapp, "DEFAULT_BRANCH_BOUND", size)
        assert stored_size(system_tree(system)) == size
        patch.setattr(gapp, "DEFAULT_BRANCH_BOUND", size - 1)
        with pytest.raises(ResourceError, match=rf"^system_tree .* \(upper bound\) {size} "):
            system_tree(system)


# sha256 of json.dumps(tree_to_json(system_tree(s))) for the corpus systems
# whose unfolding has at most 10**5 leaves, taken while each row was still a
# mirrored (positive, negative) pair of branches: signed weights must not
# move a single leaf of any unfolding.
CORPUS_TREE_DIGESTS = {
    "reflect_t1": "f27a9b9cd28bf101f95fcc7e9b195c515dc38cbf8143e4ef1a7187903d0327a4",
    "reflect_t2_off": "6925c3083edb66c42ee654c194c8ff9150a82a2317fed87166dd7038a7083d06",
    "reflect_t2_self": "705044492aec687ef89a79f6f478fd1acfff611297305e39bc4566c617d5b1ba",
    "rotate_t1": "f27a9b9cd28bf101f95fcc7e9b195c515dc38cbf8143e4ef1a7187903d0327a4",
    "rotate_t3": "92d855305f44b758b30801186bf562d2a8e6e27f55cda0cc381d358180f92f33",
    "swap_t1": "a4bd7ba79f39da683f76638b6607f346b8b7644cf339a16bd79dc0a700bb1776",
    "swap_t3": "fc2337e96c921ad87446aca7be1d403e1396eb7fc3fecb63299685930ab2db44",
    "ident2_reject_t3": "fc96c4a0e4dead04ece1fbfcb86d58473a543f8042096847438d07aa3880fe61",
    "cycle4_t3": "fc2337e96c921ad87446aca7be1d403e1396eb7fc3fecb63299685930ab2db44",
    "interference_zero": "f1ce52155cb9d70634399686824cf5505b2e6f387dacd9e218ee9dcaf4f0f277",
    "blocks_mixed_t2": "3d4f99b4c13b0b923c3cdc127989b0e118b471e639cf95388a69687bd832d203",
    "blocks_cross_t4": "fc96c4a0e4dead04ece1fbfcb86d58473a543f8042096847438d07aa3880fe61",
}


def test_system_tree_unfoldings_are_pinned():
    systems = dict(unitary_corpus())
    small = [name for name, s in systems.items() if unfolded_leaves(system_tree(s)) <= 10**5]
    assert sorted(small) == sorted(CORPUS_TREE_DIGESTS)
    for name, digest in CORPUS_TREE_DIGESTS.items():
        doc = json.dumps(tree_to_json(system_tree(systems[name])))
        assert hashlib.sha256(doc.encode()).hexdigest() == digest, name


def test_system_tree_leaves_the_collector_as_it_found_it(monkeypatch):
    refused = rotation_system(BLOCK_REFLECT, 0, 1, 10**6)
    small = rotation_system(BLOCK_REFLECT, 0, 1, 3)

    def out_of_memory(*_args):
        raise MemoryError

    assert gc.isenabled()
    with pytest.raises(ResourceError):
        system_tree(refused)
    assert gc.isenabled()
    system_tree(small)
    assert gc.isenabled()
    with monkeypatch.context() as patch:  # a failure while the collector is paused
        patch.setattr(gapp, "Product", out_of_memory)
        with pytest.raises(MemoryError):
            system_tree(small)
    assert gc.isenabled()
    gc.disable()
    try:
        system_tree(small)
        with pytest.raises(ResourceError):
            system_tree(refused)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_system_tree_of_an_unreached_accept_is_tiny():
    ident = make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 1, 6)
    tree = system_tree(ident)
    size, value = len(_walk(tree)[0]), gap(tree)
    assert corridor_pairs(ident) == 0 and size == 3 and value == 0


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_system_tree_builds_one_branch_per_cone_row_per_step(n, monkeypatch):
    """A cycle's cone is one row at every step, so the build makes exactly
    t Branch nodes: linear in t, and independent of n."""
    t = 300
    system = cycle_system(n, 0, t % n, t)
    built = []
    init = Branch.__init__

    def counted_init(node, *args, **kwargs):
        built.append(1)
        init(node, *args, **kwargs)

    monkeypatch.setattr(Branch, "__init__", counted_init)
    tree = system_tree(system)
    assert len(built) == t
    assert gap(tree) == 25**t


def test_system_tree_caps_the_forward_frontiers(monkeypatch):
    monkeypatch.setattr(gapp, "DEFAULT_BRANCH_BOUND", 10)
    unreached = make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 1, 20)  # 20 frontier rows
    tree = system_tree(unreached)
    value, size = gap(tree), stored_size(tree)
    assert value == 0 and size == 5
    # frontiers {0}, {0, 1} x 6 total 13 before the last one: 4 + 3 * (13 + 2)
    refusal = r"^system_tree stored nodes and edges \(upper bound\) 49 "
    with pytest.raises(ResourceError, match=refusal):
        system_tree(rotation_system(BLOCK_REFLECT, 0, 1, 7))


_FIXED_POINT_SCRIPT = """
from gapsim.corpus import BLOCK_REFLECT, identity_system, rotation_system
from gapsim.errors import ResourceError
from gapsim.gapp import system_tree
from gapsim.trees import gap, stored_size

for t in (10**6, 10**15):
    try:
        system_tree(rotation_system(BLOCK_REFLECT, 0, 1, t))
    except ResourceError as exc:
        print(exc)
tree = system_tree(identity_system(2, 0, 1, 10**15))
print(gap(tree), stored_size(tree))
"""


def test_system_tree_stops_the_forward_pass_at_a_fixed_point():
    # Frontiers {0}, then {0, 1} for good: the refusal is 4 + 3 * (2t - 1 + 2),
    # and an accept the identity never reaches still gives the 5-node gap-0
    # tree.  Walking t steps would not finish inside the timeout.
    src = os.path.dirname(os.path.dirname(gapp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _FIXED_POINT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    refusal = "system_tree stored nodes and edges (upper bound) {} exceeds the cap "
    refusal += "1048576 (raise gapp.DEFAULT_BRANCH_BOUND)"
    assert done.stdout.splitlines() == [
        refusal.format(6000007),
        refusal.format(6000000000000007),
        "0 5",
    ]


def test_branch_repr_does_not_unfold_the_dag():
    tree = system_tree(rotation_system(BLOCK_REFLECT, 0, 1, 3))
    text = repr(tree)  # 936,746 characters when repr unfolds the DAG
    assert len(text) < 100 and text.startswith("Product(")
    for child in (tree.left, tree.right):
        assert len(repr(child)) < 100 and repr(child).startswith("Branch(")


def test_family_certificates_compile_each_input_once():
    family, language = zero_error_family()
    labeled = [(x, language(x)) for x in strings_up_to(2)]
    awpp = bqp_to_awpp(family, (3,), labeled, paddings=[3])
    z = pair("01", "111")
    assert awpp.f.evaluator(z) is awpp.f.evaluator(z)
    with pytest.raises(StructuralError):
        awpp.f.evaluator(pair("01", "101"))
    lwpp = eqp_to_lwpp(family, labeled)
    assert lwpp.f.evaluator("01") is lwpp.f.evaluator("01")


def test_check_pp():
    plus, minus, zero = constant_machine(1), constant_machine(-3), constant_machine(0)
    assert check_pp(plus, [("x", True)]).ok
    assert check_pp(minus, [("x", False)]).ok
    assert not check_pp(zero, [("x", True)]).ok
    assert not check_pp(zero, [("x", False)]).ok  # never passes a zero gap


def test_check_lwpp_target():
    ident = make_system(1, [(0, 0, 5)], 0, 0, 1)

    def builder(x, m):
        return ident if x == "1" else make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 1, 1)

    from gapsim.model import MachineFamily

    family = MachineFamily(builder, (1,))
    cert = eqp_to_lwpp(family, [("1", True), ("0", False)])
    assert cert.g_value(1) == 25
    report = check_lwpp(cert, [("1", True), ("0", False)])
    assert report.ok
    with pytest.raises(StructuralError, match="^an LWPP certificate has no polynomial q$"):
        cert.q_value(1)
    off_target = ClassCertificate(constant_machine(24), g=lambda n: 25)
    assert not check_lwpp(off_target, [("x", True)]).ok


def awpp_table_cert(values, g=25, q=(1,)):
    def evaluator(z):
        x, _padding = unpair(z)
        value = values[x]
        return Branch((ACCEPT,) * value) if value else Branch((ACCEPT, REJECT))

    return ClassCertificate(GapMachine(evaluator), g=lambda m: g, q_coeffs=q)


def test_check_awpp_threshold_arithmetic():
    # cleared denominators: member 2*20 >= (2-1)*25, non-member 2*12 <= 25
    cert = awpp_table_cert({"0": 20, "1": 12})
    assert check_awpp(cert, [("0", True)], m=1).ok
    assert check_awpp(cert, [("1", False)], m=1).ok
    assert not check_awpp(cert, [("0", False)], m=1).ok
    assert not check_awpp(cert, [("1", True)], m=1).ok


def test_check_awpp_strictness_on_members():
    cert = awpp_table_cert({"0": 0})
    report = check_awpp(cert, [("0", True)], m=1)
    assert not report.ok
    assert report.rows[0].value == 0


def test_check_awpp_range():
    cert = awpp_table_cert({"0": 30})
    report = check_awpp(cert, [("0", True)], m=1)
    assert not report.rows[0].in_range
    assert not report.ok


def test_check_awpp_refuses_padding_shorter_than_the_input():
    cert = awpp_table_cert({"01": 20})
    with pytest.raises(StructuralError, match="^padding m=1 shorter than input '01'$"):
        check_awpp(cert, [("01", True)], m=1)


def test_bqp_to_awpp_refuses_padding_shorter_than_the_input():
    family, _ = zero_error_family()
    with pytest.raises(StructuralError, match="^padding length shorter than the input$"):
        bqp_to_awpp(family, (1,), [("01", True)], paddings=[1])


def test_tally_must_be_positive():
    cert = ClassCertificate(constant_machine(1), g=lambda m: 0)
    with pytest.raises(StructuralError, match=r"^tally g\(3\) = 0 must be positive$"):
        cert.g_value(3)


def test_check_ceqp_examples():
    flat = rotation_system(BLOCK_REFLECT, 0, 1, 2)
    rotation = rotation_system(BLOCK_REFLECT, 0, 1, 1)
    rejecting = make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 1, 1)
    machine = system_to_gap_machine(flat)
    assert check_ceqp(machine, [("", True)]).ok
    assert not check_ceqp(system_to_gap_machine(rotation), [("", True)]).ok
    assert check_ceqp(system_to_gap_machine(rejecting), [("", True)]).ok


def test_bqp_to_awpp_zero_error_any_q():
    family, language = zero_error_family()
    labeled = [(x, language(x)) for x in strings_up_to(2)]
    cert = bqp_to_awpp(family, (3,), labeled, paddings=[3])
    assert check_awpp(cert, labeled, m=3).ok


def test_bqp_to_awpp_tally_value():
    family, language = zero_error_family()
    cert = bqp_to_awpp(family, (1,), [("", True)], paddings=[2])
    assert cert.g_value(2) == 15625  # 5**(2*3)


def test_bqp_to_awpp_refuses_leaky_family():
    family, language = leaky_family()
    labeled = [(x, language(x)) for x in ("", "0", "11")]
    with pytest.raises(PromiseViolation) as info:
        bqp_to_awpp(family, (2,), labeled, paddings=[2])
    x, m, prob = info.value.witness
    assert prob == accept_probability(family.system(x, m)).as_fraction()


def test_amplified_family_margin():
    # independent oracle: the 2x2 integer recurrence for the rotation block
    a, b = 1, 0
    for _ in range(22):
        a, b = 3 * a - 4 * b, 4 * a + 3 * b
    assert a * a + b * b == 25**22
    family, language = amplified_family()
    prob = accept_probability(family.system("", 8))
    assert prob.numerator == b * b
    # error below 2**-8 with cleared denominators
    assert (5**44 - b * b) * 2**8 <= 5**44


def test_eqp_to_lwpp_refuses_rotation():
    family, language = leaky_family()
    with pytest.raises(PromiseViolation):
        eqp_to_lwpp(family, [("", True)])


def test_eqp_to_lwpp_refusal_names_the_side_with_its_witness():
    from gapsim.model import MachineFamily

    members, _ = leaky_family()  # even-parity "" is a member, accepted with 16/25
    reflect = rotation_system(BLOCK_REFLECT, 0, 1, 1)
    non_members = MachineFamily(lambda x, m: reflect, (1,))
    for family, x, member, text in (
        (members, "", True, "member '' accepted with probability 16/25 != 1"),
        (non_members, "1", False, "non-member '1' accepted with probability 16/25 != 0"),
    ):
        with pytest.raises(PromiseViolation) as info:
            eqp_to_lwpp(family, [(x, member)])
        assert str(info.value) == text
        assert info.value.witness == (x, accept_probability(family.system(x)))
        assert info.value.witness[1].as_fraction() == Fraction(16, 25)


def test_tree_files_round_trip(tmp_path):
    from gapsim.trees import gap as tree_gap

    tree = Branch((ACCEPT, Branch((REJECT, ACCEPT)), REJECT))
    doc = {"kind": "tree", "tree": tree_to_json(tree)}
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    machine = load_gap_machine(str(path))
    assert gap_of(machine, "anything") == tree_gap(tree)


def test_tree_file_rejects_empty_branch():
    with pytest.raises(ParseError):
        tree_from_json([])
    with pytest.raises(ParseError):
        tree_from_json("maybe")


def test_system_reference_file(tmp_path):
    system = rotation_system(BLOCK_REFLECT, 0, 1, 1)
    (tmp_path / "machines").mkdir()
    (tmp_path / "machines" / "rot.json").write_text(
        json.dumps(system.to_file_dict())
    )
    (tmp_path / "trees").mkdir()
    ref = tmp_path / "trees" / "ref.json"
    ref.write_text(json.dumps({"kind": "system", "path": "../machines/rot.json"}))
    assert gap_of(load_gap_machine(str(ref)), "") == 16
