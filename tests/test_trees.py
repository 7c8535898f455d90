import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsim.corpus import BLOCK_REFLECT, rotation_system
from gapsim.errors import ResourceError
from gapsim.gapp import (
    ClassCertificate,
    GapMachine,
    exp_sum,
    poly_product,
    system_tree,
    tree_from_json,
)
from gapsim.lowness import LownessInstance, inline_construction, machine_from_tables
from gapsim.trees import (
    ACCEPT,
    REJECT,
    Branch,
    Leaf,
    distinct_size,
    gap,
    leaf_counts,
    negated,
    substituted,
    unfolded_leaves,
    unfolded_size,
)


def tree_strategy(depth=4):
    leaf = st.sampled_from([ACCEPT, REJECT])
    return st.recursive(
        leaf,
        lambda kids: st.builds(
            lambda cs, k: Branch(tuple(cs), k),
            st.lists(kids, min_size=1, max_size=4),
            st.integers(1, 3),
        ),
        max_leaves=25,
    )


def test_gap_by_definition():
    tree = Branch((ACCEPT, ACCEPT, ACCEPT, REJECT))
    assert leaf_counts(tree) == (3, 1)
    assert gap(tree) == 2


def test_all_reject():
    assert gap(Branch((REJECT,) * 4)) == -4


def test_single_accept_leaf():
    assert gap(ACCEPT) == 1


def test_shared_subtrees_count_with_multiplicity():
    inner = Branch((ACCEPT, ACCEPT))
    tree = Branch((inner, inner, inner))
    assert gap(tree) == 6
    assert unfolded_leaves(tree) == 6
    assert unfolded_size(tree) == 1 + 3 * 3
    assert distinct_size(tree) == 3  # root, inner, shared leaf


def _inline_over_bound():
    huge = Branch((ACCEPT,) * (1 << 19))  # the approximator tree, copied twice per query
    machine = machine_from_tables(1, {"": "0"}, {"1": ACCEPT, "0": REJECT})
    cert = ClassCertificate("awpp", GapMachine(lambda _z: huge), g=lambda _m: 2, q_coeffs=(0,))
    instance = LownessInstance(machine, frozenset(), cert, (0,))
    return lambda: inline_construction(instance, "")


def _machine(branch_bound):
    return GapMachine(lambda _z: Branch((ACCEPT, REJECT, ACCEPT)), branch_bound)


BOUND = r"exceeds branch_bound 1048576 \(raise branch_bound\)$"


@pytest.mark.parametrize(
    "make,message",
    [
        (  # 18 nodes and edges at the first step, 32 at each later one
            lambda: lambda: system_tree(rotation_system(BLOCK_REFLECT, 0, 1, 40000)),
            "^system_tree stored nodes and edges 1048594 " + BOUND,
        ),
        (
            lambda: lambda: poly_product(_machine(4), (4,)).evaluator(""),
            r"^poly_product factors 5 exceeds branch_bound 4 \(raise branch_bound\)$",
        ),
        (
            _inline_over_bound,
            "^inline_construction stored nodes and edges \\(upper bound\\) 1048590 " + BOUND,
        ),
        (
            lambda: lambda: tree_from_json(["accept"] * ((1 << 20) + 1)),
            "^tree branches and edges 1048578 " + BOUND,
        ),
        (
            lambda: lambda: exp_sum(_machine(4), (2,)).evaluator(""),
            r"^exp_sum branches 2\*\*3 - 1 exceeds branch_bound 4 \(raise branch_bound\)$",
        ),
    ],
    ids=["system_tree", "poly_product", "inline_construction", "tree_from_json", "exp_sum"],
)
def test_builders_refuse_before_allocating(make, message, monkeypatch):
    """Each row makes its inputs, then hands back the one call under test."""
    build = make()
    built = []
    post_init = Branch.__post_init__
    # Counts every Branch made anywhere, so a builder that allocated part of
    # the tree (or let a helper do it) before refusing fails here.
    monkeypatch.setattr(Branch, "__post_init__", lambda node: (built.append(1), post_init(node)))
    with pytest.raises(ResourceError, match=message):
        build()
    assert built == []


def recursive_counts(node):
    """(accept, reject) leaves of the unfolding, recounted from children and count alone."""
    if isinstance(node, Leaf):
        return (1, 0) if node.accepting else (0, 1)
    acc = rej = 0
    for child in node.children:
        a, r = recursive_counts(child)
        acc, rej = acc + a, rej + r
    return node.count * acc, node.count * rej


@given(tree_strategy(), tree_strategy())
def test_stored_counts_match_a_recursive_count(tree, other):
    for image in (tree, negated(tree), substituted(tree, other, negated(other))):
        assert image.counts == recursive_counts(image)
    assert gap(tree, 10) == gap(tree)  # the positional budget perfbench passes


@given(st.lists(tree_strategy(), min_size=1, max_size=3), st.integers(1, 4))
def test_counted_branch_matches_repeated_children(children, k):
    counted, repeated = Branch(tuple(children), k), Branch(tuple(children) * k)
    assert gap(counted) == gap(repeated)
    assert leaf_counts(counted) == leaf_counts(repeated)
    assert unfolded_size(counted) == unfolded_size(repeated)
    assert leaf_counts(negated(counted)) == leaf_counts(negated(repeated))
    assert negated(counted).count == k
    inner = Branch((ACCEPT, REJECT, ACCEPT))
    assert leaf_counts(substituted(counted, inner, REJECT)) == leaf_counts(
        substituted(repeated, inner, REJECT)
    )


def test_deep_chain_no_recursion_limit():
    tree = ACCEPT
    for _ in range(5000):
        tree = Branch((tree,))
    assert gap(tree) == 1
    assert gap(negated(tree)) == -1


@given(tree_strategy())
def test_negation_flips_gap(tree):
    assert gap(negated(tree)) == -gap(tree)
    acc, rej = leaf_counts(tree)
    assert leaf_counts(negated(tree)) == (rej, acc)


@given(tree_strategy(), tree_strategy())
def test_substitution_multiplies_gaps(t1, t2):
    # accept -> t2, reject -> negated t2 realizes the signed product
    product = substituted(t1, t2, negated(t2))
    assert gap(product) == gap(t1) * gap(t2)


@given(tree_strategy())
def test_substitution_identity(tree):
    assert gap(substituted(tree, ACCEPT, REJECT)) == gap(tree)
