import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsim.errors import ResourceError
from gapsim.trees import (
    ACCEPT,
    REJECT,
    Branch,
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


def test_node_budget():
    wide = Branch(tuple(Branch((ACCEPT, REJECT)) for _ in range(100)))
    with pytest.raises(ResourceError):
        gap(wide, node_budget=50)
    assert gap(wide, node_budget=1000) == 0


def test_node_budget_counts_edges():
    with pytest.raises(ResourceError, match="budget of 50.*branch_bound"):
        gap(Branch((ACCEPT,) * 100), node_budget=50)
    assert gap(Branch((ACCEPT,), 1 << 64), node_budget=3) == 1 << 64


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
