import copy
import pickle
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsim import gapp
from gapsim.corpus import BLOCK_REFLECT, _signed_tree, rotation_system
from gapsim.errors import ResourceError
from gapsim.gapp import (
    ClassCertificate,
    GapMachine,
    exp_sum,
    poly_product,
    system_tree,
    tree_from_json,
    tree_to_json,
)
from gapsim.lowness import LownessInstance, inline_construction, machine_from_tables
from gapsim.trees import (
    ACCEPT,
    REJECT,
    Branch,
    Leaf,
    Product,
    _walk,
    gap,
    stored_size,
    unfolded_leaves,
)


def weighted_branches(kids):
    """Branches over 1-4 drawn children, unweighted or with weights +-1..+-3 each."""
    weight = st.integers(1, 3) | st.integers(-3, -1)
    return st.lists(kids, min_size=1, max_size=4).flatmap(
        lambda cs: st.builds(
            lambda ws: Branch(tuple(cs), ws),
            st.none() | st.tuples(*[weight] * len(cs)),
        )
    )


def tree_strategy(max_leaves=25):
    leaf = st.sampled_from([ACCEPT, REJECT])
    return st.recursive(leaf, weighted_branches, max_leaves=max_leaves)


# Small enough that the unfolding of a product of three stays cheap to list.
small_trees = tree_strategy(max_leaves=6)


def json_nodes(doc):
    """Node count of a tree document, that is of the unfolded tree."""
    return 1 + sum(map(json_nodes, doc)) if isinstance(doc, list) else 1


def test_gap_by_definition():
    tree = Branch((ACCEPT, ACCEPT, ACCEPT, REJECT))
    assert tree.counts == (3, 1)
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
    assert json_nodes(tree_to_json(tree)) == 1 + 3 * 3
    assert len(_walk(tree)[0]) == 3  # root, inner, shared leaf


def _inline_over_bound():
    huge = Branch((ACCEPT,) * (1 << 20))  # the approximator tree, shared by both products
    machine = machine_from_tables(1, {"": "0"}, {"1": ACCEPT, "0": REJECT})
    cert = ClassCertificate(GapMachine(lambda _z: huge), g=lambda _m: 2, q_coeffs=(0,))
    instance = LownessInstance(machine, frozenset(), cert)
    return lambda: inline_construction(instance, "")


THREE_LEAVES = GapMachine(lambda _z: Branch((ACCEPT, REJECT, ACCEPT)))


BOUND = r"exceeds the cap 1048576 \(raise gapp\.DEFAULT_BRANCH_BOUND\)$"


@pytest.mark.parametrize(
    "make,message",
    [
        (  # 4 for the product and the leaf, then from accept back: 3 at the last step, 6 before
            lambda: lambda: system_tree(rotation_system(BLOCK_REFLECT, 0, 1, 200000)),
            r"^system_tree stored nodes and edges \(upper bound\) 1048579 " + BOUND,
        ),
        (
            lambda: lambda: poly_product(THREE_LEAVES, (1 << 20,)).evaluator(""),
            "^poly_product factors 1048577 " + BOUND,
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
            lambda: lambda: exp_sum(THREE_LEAVES, (20,)).evaluator(""),
            r"^exp_sum branches 2\*\*21 - 1 " + BOUND,
        ),
    ],
    ids=["system_tree", "poly_product", "inline_construction", "tree_from_json", "exp_sum"],
)
def test_builders_refuse_before_allocating(make, message, monkeypatch):
    """Each row makes its inputs, then hands back the one call under test."""
    build = make()
    built = []
    init = Branch.__init__

    def counted_init(node, *args, **kwargs):
        built.append(1)
        init(node, *args, **kwargs)

    # Counts every Branch made anywhere, so a builder that allocated part of
    # the tree (or let a helper do it) before refusing fails here.
    monkeypatch.setattr(Branch, "__init__", counted_init)
    assert gap(Branch((ACCEPT, REJECT), (3, 1))) == 2
    assert built == [1]  # the hook sees a Branch, so an empty count below means none was made
    built.clear()
    with pytest.raises(ResourceError, match=message):
        build()
    assert built == []


def test_one_constant_caps_every_builder(monkeypatch):
    monkeypatch.setattr(gapp, "DEFAULT_BRANCH_BOUND", 4)
    bound = r"exceeds the cap 4 \(raise gapp\.DEFAULT_BRANCH_BOUND\)$"
    assert gap(exp_sum(THREE_LEAVES, (1,)).evaluator("")) == 3  # 3 branches fit
    with pytest.raises(ResourceError, match=r"^exp_sum branches 2\*\*3 - 1 " + bound):
        exp_sum(THREE_LEAVES, (2,)).evaluator("")
    assert gap(poly_product(THREE_LEAVES, (3,)).evaluator("")) == 1  # 4 factors fit
    with pytest.raises(ResourceError, match="^poly_product factors 5 " + bound):
        poly_product(THREE_LEAVES, (4,)).evaluator("")
    finishes = {"1": ACCEPT, "0": REJECT}
    approximator = ClassCertificate(THREE_LEAVES, g=lambda _m: 2, q_coeffs=(0,))
    machine = machine_from_tables(1, {"": "0"}, finishes)
    inlined = r"^inline_construction stored nodes and edges \(upper bound\) 18 "
    with pytest.raises(ResourceError, match=inlined + bound):  # lowness reads gapp's cap too
        inline_construction(LownessInstance(machine, frozenset(), approximator), "")
    assert THREE_LEAVES.branch_bound == 4


def test_exp_sum_refuses_a_huge_bound_without_allocating():
    machine = exp_sum(GapMachine(lambda _z: ACCEPT), (10**8,))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=r"^exp_sum branches 2\*\*100000001 - 1 " + BOUND):
            machine.evaluator("")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2**(10**8) alone would take 12.5 MB


def recursive_counts(node):
    """(accept, reject) leaves of the unfolding, recounted from children and weights alone.

    A child of weight -w counts w times with its accept and reject leaves swapped.
    """
    if isinstance(node, Leaf):
        return (1, 0) if node.accepting else (0, 1)
    acc = rej = 0
    for child, w in zip(node.children, node.weights or [1] * len(node.children)):
        a, r = recursive_counts(child)
        if w < 0:
            a, r, w = r, a, -w
        acc, rej = acc + w * a, rej + w * r
    return acc, rej


@given(tree_strategy())
def test_stored_counts_match_a_recursive_count(tree):
    assert tree.counts == recursive_counts(tree)
    assert gap(tree, 10) == gap(tree)  # the positional budget perfbench passes


def unfolding(node):
    """The unfolded tree as nested lists of "accept" and "reject", by definition.

    A branch lists child i |weights[i]| times, with its labels swapped when
    weights[i] < 0; a product is its left unfolding with each accept leaf
    replaced by the right unfolding and each reject leaf by that unfolding
    with its labels swapped.
    """
    if isinstance(node, Leaf):
        return "accept" if node.accepting else "reject"
    if isinstance(node, Product):
        right = unfolding(node.right)
        return relabeled(unfolding(node.left), {"accept": right, "reject": swapped(right)})
    weights = node.weights or (1,) * len(node.children)
    docs = [
        unfolding(child) if w > 0 else swapped(unfolding(child))
        for child, w in zip(node.children, weights)
    ]
    return [doc for doc, w in zip(docs, weights) for _ in range(abs(w))]


def relabeled(doc, image):
    return [relabeled(child, image) for child in doc] if isinstance(doc, list) else image[doc]


def swapped(doc):
    return relabeled(doc, {"accept": "reject", "reject": "accept"})


def listed_counts(doc):
    """(accept, reject) leaves of a nested-list tree, one leaf at a time."""
    if not isinstance(doc, list):
        return (1, 0) if doc == "accept" else (0, 1)
    pairs = [listed_counts(child) for child in doc]
    return sum(a for a, _ in pairs), sum(r for _, r in pairs)


def negation(tree):
    """The tree negated as a product with one reject leaf."""
    return Product(tree, REJECT)


def signed_negation(tree):
    """The tree negated as the one child of a branch, at weight -1."""
    return Branch((tree,), (-1,))


@given(small_trees, small_trees, small_trees)
def test_products_match_their_unfolding(a, b, c):
    for node in (
        Product(a, b),
        negation(a),
        signed_negation(a),
        Product(Product(a, b), c),
        Product(a, Product(b, negation(c))),
        Product(a, signed_negation(Product(b, c))),
        Branch((a, Product(b, c)), (2, -1)),
    ):
        doc = unfolding(node)
        assert node.counts == listed_counts(doc)
        assert tree_to_json(node) == doc


@given(tree_strategy(), tree_strategy())
def test_product_multiplies_gaps(a, b):
    assert gap(Product(a, b)) == gap(a) * gap(b)


@given(tree_strategy())
def test_negation_flips_gap(tree):
    acc, rej = tree.counts
    for negated in (negation(tree), signed_negation(tree)):
        assert gap(negated) == -gap(tree)
        assert negated.counts == (rej, acc)


@given(small_trees)
def test_double_negation_unfolds_to_the_tree(tree):
    twice = negation(negation(tree))
    assert twice.counts == tree.counts
    assert unfolding(twice) == unfolding(tree)
    signed_twice = signed_negation(signed_negation(tree))
    assert signed_twice.counts == tree.counts
    assert tree_to_json(signed_twice) == [[tree_to_json(tree)]]  # two one-child branches


@given(weighted_branches(small_trees), small_trees)
def test_weighted_branch_matches_its_expansion(weighted, other):
    weights = weighted.weights or (1,) * len(weighted.children)
    expanded = Branch(  # a child of weight -w is w products with one reject leaf
        tuple(
            child if w > 0 else negation(child)
            for child, w in zip(weighted.children, weights)
            for _ in range(abs(w))
        )
    )
    for image in (
        lambda t: t,
        negation,
        signed_negation,
        lambda t: Product(t, other),
        lambda t: Product(other, Product(t, Branch((ACCEPT, REJECT, ACCEPT)))),
    ):
        assert image(weighted).counts == image(expanded).counts
        assert tree_to_json(image(weighted)) == unfolding(image(expanded))
    assert tree_from_json(tree_to_json(weighted)).counts == weighted.counts


def test_product_is_one_node_over_shared_factors():
    factor = Branch((ACCEPT, REJECT, ACCEPT))
    square = Product(factor, factor)
    assert stored_size(square) == 3 + stored_size(factor)  # one node, two edges
    assert len(_walk(square)[0]) == 1 + len(_walk(factor)[0])
    assert gap(square) == 1 and unfolded_leaves(square) == 9
    assert json_nodes(tree_to_json(square)) == 1 + 3 * 4


def stored_children(node):
    if isinstance(node, Branch):
        return node.children
    if isinstance(node, Product):
        return node.left, node.right
    return ()


def reference_distinct(root):
    """The distinct nodes by id, found by a recursive visit."""
    seen = {}

    def visit(node):
        if id(node) not in seen:
            seen[id(node)] = node
            for child in stored_children(node):
                visit(child)

    visit(root)
    return seen


@given(tree_strategy(), tree_strategy())
def test_stored_size_counts_each_distinct_node_once(a, b):
    shared = Branch((a, b, a, a), (1, -1, 2, 3))  # a three times, and maybe leaves of b
    for root in (
        a,
        shared,
        Product(a, b),
        Product(a, a),
        Product(shared, a),
        signed_negation(a),
        signed_negation(Product(a, shared)),
        Branch((a, signed_negation(a), Product(b, a))),
    ):
        distinct = reference_distinct(root)
        assert stored_size(root) == sum(1 + len(stored_children(n)) for n in distinct.values())
        assert sorted(map(id, _walk(root)[0].values())) == sorted(distinct)


def test_nodes_are_immutable_and_compare_by_identity():
    branch = Branch((ACCEPT, REJECT, ACCEPT))
    product = Product(branch, REJECT)
    for node, field in ((ACCEPT, "accepting"), (branch, "children"), (product, "left")):
        for name in (field, "counts", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
    assert ACCEPT.accepting and ACCEPT.counts == (1, 0)
    assert branch.children == (ACCEPT, REJECT, ACCEPT) and branch.counts == (2, 1)
    assert product.left is branch and product.counts == (1, 2)
    twin = Branch((ACCEPT, REJECT, ACCEPT))
    assert branch == branch and branch != twin and twin.counts == branch.counts
    assert Leaf(True) != ACCEPT and Product(branch, REJECT) != product
    assert hash(branch) == object.__hash__(branch) and hash(twin) == object.__hash__(twin)
    assert len({branch, twin, Branch((ACCEPT, REJECT, ACCEPT))}) == 3
    for copied in (pickle.loads(pickle.dumps(product)), copy.deepcopy(product)):
        assert copied is not product and copied.counts == product.counts
        assert tree_to_json(copied) == tree_to_json(product)
    assert copy.copy(branch).children is branch.children


def test_node_reprs_are_constant_size():
    assert repr(ACCEPT) == "Leaf(accepting=True)"
    assert repr(REJECT) == "Leaf(accepting=False)"
    assert repr(Branch((ACCEPT,) * 1000)) == "Branch(<1000 children>, weights=None)"
    assert repr(Branch((ACCEPT, REJECT), (2, -1))) == "Branch(<2 children>, weights=(2, -1))"
    assert repr(Product(ACCEPT, Branch((REJECT,)))) == "Product(<left>, <right>)"


def test_weights_must_match_children():
    with pytest.raises(ValueError, match=r"^2 weights for 1 children$"):
        Branch((ACCEPT,), (1, 2))
    with pytest.raises(ValueError, match=r"^1 weights for 2 children$"):
        Branch((ACCEPT, REJECT), (1,))


def _listed_signed_tree(value, noise=0):
    """The gap-machine corpus tree as one child per leaf, the form of the tree files."""
    children = [ACCEPT] * value if value > 0 else [REJECT] * -value
    children.extend([ACCEPT, REJECT] * noise)
    if not children:
        children = [ACCEPT, REJECT]
    if len(children) == 1:
        return children[0]
    return Branch(tuple(children))


def test_signed_tree_writes_the_listed_form():
    for value in range(-30, 31):
        for noise in range(3):
            tree = _signed_tree(value, noise)
            assert tree_to_json(tree) == tree_to_json(_listed_signed_tree(value, noise))
            assert tree.counts == _listed_signed_tree(value, noise).counts


def test_deep_chain_no_recursion_limit():
    tree = ACCEPT
    for _ in range(5000):
        tree = Branch((tree,))
    assert gap(tree) == 1
    assert gap(negation(tree)) == -1
    assert stored_size(negation(tree)) == 2 * 5000 + 1 + 1 + 3  # the walk is not recursive
    assert stored_size(signed_negation(tree)) == 2 * 5000 + 1 + 2
