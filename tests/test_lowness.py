import dataclasses
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gapsim.gapp
import gapsim.lowness
from gapsim.corpus import adversarial_lowness_instance, amplified_family, lowness_corpus
from gapsim.errors import ModelError
from gapsim.gapp import bqp_to_awpp, check_awpp, gap_of
from gapsim.lowness import (
    LownessInstance,
    OracleGapMachine,
    inline_construction,
    machine_from_tables,
    near_extreme_instance,
    read_instance_bundle,
    true_gap,
    validate_instance,
    verify_sign_preservation,
)
from gapsim.strings import pair
from gapsim.trees import ACCEPT, REJECT, Branch, gap, unfolded_leaves


def largest_finish(instance, x):
    """Largest unfolded finish tree over every answer tuple, counted here."""
    answers = itertools.product((True, False), repeat=instance.machine.query_count)
    return max(unfolded_leaves(instance.machine.finish(x, a)) for a in answers)


def single_query_machine(yes_gap=1, no_gap=-1):
    trees = {
        "1": Branch((ACCEPT,) * yes_gap) if yes_gap > 1 else ACCEPT,
        "0": Branch((REJECT,) * -no_gap) if no_gap < -1 else REJECT,
    }
    return machine_from_tables(1, {"": "00"}, trees)


def test_true_gap_follows_oracle():
    instance = near_extreme_instance(
        single_query_machine(), frozenset({"00"}), (2, 4), (0, 4)
    )
    assert true_gap(instance, "01") == 1
    empty = near_extreme_instance(
        single_query_machine(), frozenset(), (2, 4), (0, 4)
    )
    assert true_gap(empty, "01") == -1


def test_no_query_machine_ignores_oracle():
    machine = OracleGapMachine(
        query_count=0,
        next_query=lambda x, a: "",
        finish=lambda x, a: Branch((ACCEPT, ACCEPT, REJECT)),
    )
    for oracle in (frozenset(), frozenset({"0", "1"})):
        instance = near_extreme_instance(machine, oracle, (2, 4), (0, 4))
        assert true_gap(instance, "0") == 1


def test_inline_no_queries_is_the_same_tree():
    tree = Branch((ACCEPT, REJECT, ACCEPT))
    machine = OracleGapMachine(
        query_count=0, next_query=lambda x, a: "", finish=lambda x, a: tree
    )
    instance = near_extreme_instance(machine, frozenset(), (2, 4), (0, 4))
    inlined = inline_construction(instance, "00")
    assert inlined.evaluator("00") is tree


def test_inline_gap_is_weighted_combination():
    # independent arithmetic: f * yes + (g - f) * no
    instance = near_extreme_instance(
        single_query_machine(yes_gap=2, no_gap=-3), frozenset({"00"}), (2, 4), (0, 4)
    )
    g = instance.approximator.g_value(2)
    f = g - 1
    want = f * 2 + (g - f) * -3
    assert gap_of(inline_construction(instance, "01"), "01") == want


def test_sign_preserved_exhaustively_on_corpus():
    for name, instance, inputs in lowness_corpus():
        valid, why = validate_instance(instance, inputs)
        assert valid, f"{name}: {why}"
        report = verify_sign_preservation(instance, inputs)
        assert report.ok, f"{name} flipped: {report.flips()}"
        for row in report.rows:
            assert row.error_within_budget
            # The weight of the true answer path, from the approximator's own gaps.
            n = len(row.x)
            g = instance.approximator.g_value(n)
            queries, answers = instance.machine.answer_trace(row.x, instance.oracle.__contains__)
            weight = 1
            for y, member in zip(queries, answers):
                f = gap_of(instance.approximator.f, pair(y, "1" * n))
                weight *= f if member else g - f
            assert row.error_mass < abs(weight * row.true_gap)


def test_inline_quantum_approximator():
    # g = 5**44 (t = 22), so the T_no block must be one counted edge
    family, language = amplified_family()
    labeled = [(y, language(y)) for y in ("00", "01", "10", "11")]
    cert = bqp_to_awpp(family, (0, 1), labeled, paddings=[2])
    machine = OracleGapMachine(
        query_count=1,
        next_query=lambda x, _answers: x,
        finish=lambda _x, answers: ACCEPT if answers[0] else REJECT,
    )
    oracle = frozenset(y for y, member in labeled if member)
    instance = LownessInstance(machine, oracle, cert)
    inputs = [y for y, _ in labeled]
    assert validate_instance(instance, inputs) == (True, "ok")
    report = verify_sign_preservation(instance, inputs)
    assert report.ok
    for row in report.rows:
        assert cert.g_value(len(row.x)) == 5**44
        assert row.error_within_budget


def test_corpus_is_large_enough():
    assert len(lowness_corpus()) >= 10


def test_approximator_certificates_hold_on_queries():
    for name, instance, inputs in lowness_corpus():
        for x in inputs:
            queries, _ = instance.machine.answer_trace(
                x, lambda y: y in instance.oracle
            )
            labeled = [(y, y in instance.oracle) for y in queries]
            assert check_awpp(instance.approximator, labeled, len(x)).ok


def test_adversarial_flip_found_and_budget_violated():
    instance, inputs, fraction, no_gap = adversarial_lowness_instance()
    report = verify_sign_preservation(instance, inputs)
    flips = report.flips()
    assert flips
    valid, why = validate_instance(instance, inputs)
    assert not valid
    assert "2**(q/2)" in why
    row = flips[0]
    assert row.error_mass > 0
    assert not row.paths_within_budget


@pytest.mark.parametrize(
    "member_value, inlined",
    [(lambda g: g * 3 // 4, 256), (lambda g: g * 2 // 3, -2)],
    ids=["three_quarters_keeps", "two_thirds_flips"],
)
def test_undersized_budget_flips_at_two_thirds_not_three_quarters(member_value, inlined):
    instance = near_extreme_instance(
        single_query_machine(no_gap=-2), frozenset({"00"}), (2, 4), (1,), member_value
    )
    (row,) = verify_sign_preservation(instance, ["00"]).rows
    assert (row.true_gap, row.inlined_gap, row.sign_ok) == (1, inlined, inlined > 0)
    assert not row.paths_within_budget


def test_large_margin_is_trivially_safe():
    instance = near_extreme_instance(
        single_query_machine(yes_gap=4, no_gap=-4), frozenset({"00"}), (2, 4), (0, 4)
    )
    report = verify_sign_preservation(instance, ["00", "11"])
    assert report.ok
    for row in report.rows:
        assert row.paths_within_budget


def _weakened(member_value):
    """The one-query machine on oracle {"00"}, its member row set by member_value."""
    return near_extreme_instance(
        single_query_machine(), frozenset({"00"}), (2, 4), (0, 4), member_value
    )


def test_near_extreme_table_refuses_a_nonpositive_value():
    with pytest.raises(ModelError, match="^table value 0 must be positive$"):
        verify_sign_preservation(_weakened(lambda g: 0), ["00"])


def test_validate_instance_names_the_input_whose_queries_break_the_promise():
    assert validate_instance(_weakened(lambda g: g // 2), ["00"]) == (
        False,
        "approximator promise fails on queries of '00'",
    )


def test_path_count_is_max_over_answer_patterns():
    machine = machine_from_tables(
        1,
        {"": "00"},
        {"1": Branch((ACCEPT,) * 5), "0": ACCEPT},
    )
    instance = near_extreme_instance(machine, frozenset(), (2, 4), (0, 4))
    (row,) = verify_sign_preservation(instance, ["01"]).rows
    assert row.path_count == largest_finish(instance, "01") == 5


def test_incomplete_tables_rejected():
    with pytest.raises(ModelError):
        machine_from_tables(2, {"": "00"}, {"00": ACCEPT})
    with pytest.raises(ModelError):
        machine_from_tables(1, {"": "00"}, {"1": ACCEPT})
    with pytest.raises(ModelError, match="no answer prefix reaches"):
        machine_from_tables(1, {"": "00", "junk": "1"}, {"1": ACCEPT, "0": ACCEPT})
    with pytest.raises(ModelError, match="no answer prefix reaches"):
        machine_from_tables(1, {"": "00"}, {"1": ACCEPT, "0": ACCEPT, "11": ACCEPT})


def test_bundle_round_trip():
    doc = {
        "machine": {
            "query_count": 1,
            "queries": {"": "00"},
            "trees": {"1": "accept", "0": ["reject", "reject"]},
        },
        "oracle": ["00"],
        "certificate": {"style": "near-extreme", "g_pow2": [2, 4]},
        "q": [0, 4],
        "inputs": ["00", "01"],
    }
    instance, inputs = read_instance_bundle(json.loads(json.dumps(doc)))
    assert inputs == ("00", "01")
    assert true_gap(instance, "00") == 1
    assert verify_sign_preservation(instance, inputs).ok


def _counted(instance):
    """The instance with every machine call and approximator evaluation counted."""
    calls = {"next_query": 0, "finish": 0, "approximator": 0}

    def counting(name, call):
        def counted_call(*args):
            calls[name] += 1
            return call(*args)

        return counted_call

    machine, f = instance.machine, instance.approximator.f
    return (
        dataclasses.replace(
            instance,
            machine=OracleGapMachine(
                machine.query_count,
                counting("next_query", machine.next_query),
                counting("finish", machine.finish),
            ),
            approximator=dataclasses.replace(
                instance.approximator,
                f=dataclasses.replace(f, evaluator=counting("approximator", f.evaluator)),
            ),
        ),
        calls,
    )


def test_each_machine_call_is_made_once():
    # two queries: 3 answer prefixes ask one, 4 full answer tuples finish
    instance = {name: inst for name, inst, _ in lowness_corpus()}["two_query"]
    counted, calls = _counted(instance)
    assert verify_sign_preservation(counted, ["00"]) == verify_sign_preservation(
        instance, ["00"]
    )
    assert calls == {"next_query": 3, "finish": 4, "approximator": 3}
    counted, calls = _counted(instance)
    assert validate_instance(counted, ["00"]) == (True, "ok")
    assert calls["approximator"] == 2  # check_awpp on the two traced queries only


def test_each_approximator_call_pairs_and_each_padded_query_unpairs_once(monkeypatch):
    """A sign check evaluates the approximator 2**k - 1 times per input of a
    k-query machine, each on pair(y, 1**m).  The certificate decodes each
    distinct padded query once, in gapp.padded, so a second audit decodes none."""
    calls = Counter()

    def count(module, name):
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.update((name,)) or function(*args))

    count(gapsim.lowness, "pair")  # where _Unrolling encodes
    count(gapsim.gapp, "unpair")  # where gapp.padded decodes
    for name, instance, inputs in lowness_corpus():
        evaluations = ((1 << instance.machine.query_count) - 1) * len(inputs)
        assert evaluations == {"two_query": 12, "no_query": 0}.get(name, 4), name
        distinct = {"fixed_query": 1, "no_query": 0}.get(name, 4)
        for unpairs in distinct, 0:
            calls.clear()
            verify_sign_preservation(instance, inputs)
            assert (calls["pair"], calls["unpair"]) == (evaluations, unpairs), name


STRINGS = ("", "0", "1", "00", "01")


@st.composite
def table_instances(draw):
    """A complete random query table, k in 0..3, with a near-extreme approximator."""
    k = draw(st.integers(0, 3))
    queries = {
        "".join(bits): draw(st.sampled_from(STRINGS))
        for depth in range(k)
        for bits in itertools.product("10", repeat=depth)
    }
    weighted_leaves = st.lists(
        st.tuples(st.sampled_from([ACCEPT, REJECT]), st.integers(1, 3)), min_size=1, max_size=4
    )
    finish = {
        "".join(bits): Branch(*zip(*draw(weighted_leaves)))  # (children, weights)
        for bits in itertools.product("10", repeat=k)
    }
    oracle = draw(st.frozensets(st.sampled_from(STRINGS)))
    g_pow2 = (draw(st.integers(1, 3)), 1)  # g = 2**(c + len(x))
    machine = machine_from_tables(k, queries, finish)
    return near_extreme_instance(machine, oracle, g_pow2, (0, 4)), queries, finish


@given(table_instances())
def test_inlining_matches_the_weighted_recursion(drawn):
    instance, queries, finish = drawn
    report = verify_sign_preservation(instance, STRINGS)
    for x, row in zip(STRINGS, report.rows):
        g = instance.approximator.g_value(len(x))

        def weighted(prefix):
            """f * G(yes) + (g - f) * G(no), from the tables alone."""
            if prefix in finish:
                return gap(finish[prefix])
            f = g - 1 if queries[prefix] in instance.oracle else 1
            return f * weighted(prefix + "1") + (g - f) * weighted(prefix + "0")

        assert gap_of(inline_construction(instance, x), x) == weighted("")
        assert row.inlined_gap == weighted("")
        assert row.true_gap == true_gap(instance, x)
        assert row.path_count == largest_finish(instance, x)
        assert row.path_count == max(unfolded_leaves(t) for t in finish.values())
