import importlib
import math
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapsim.oracle
from gapsim.corpus import (
    Draft,
    classical_route_system,
    decider_conditions,
    decider_corpus,
    deep_chain_system,
    double_phase_system,
    flip_stability_corpus,
    four_way_phase_system,
    global_phase_system,
    or_of_two_system,
    oracle_free_system,
    phase_split_system,
)
from gapsim.errors import (
    CategoricalityError,
    DomainError,
    GapsimError,
    ModelError,
    OracleError,
    ResourceError,
    StructuralError,
)
from gapsim.evolve import accept_probability, trajectory
from gapsim.model import make_system
from gapsim.oracle import (
    DeciderResult,
    OracleAssignment,
    OracleQuerySystem,
    SensitivityParams,
    TowerCondition,
    acceptance_prob_rel,
    categorical_check,
    query_magnitudes,
    rerelativized_decide,
    verify_flip_stability,
)
from gapsim.strings import strings_of_length, strings_up_to

from drafts import draft_query_systems

EPS = Fraction(1, 7)


def params_for(system, x=""):
    return SensitivityParams(EPS, system.p(len(x)))


def test_tower_values():
    # the tower values tower(0..4): 2, 4, 16, 65536 and 2**65536
    for length in (2, 4, 16, 65536, 2**65536):
        TowerCondition(frozenset({length}), frozenset(), frozenset())
    for length in (0, 1, 3, 5, 8, 15, 17, 256, 65535, 65537, 2**65536 + 1):
        with pytest.raises(ModelError) as info:
            TowerCondition(frozenset({length}), frozenset(), frozenset())
        assert str(info.value) == f"lengths [{Decimal(length)}] are not tower values"
    with pytest.raises(ModelError, match=r"^lengths \[3, 8\] are not tower values$"):
        TowerCondition(frozenset({8, 4, 3}), frozenset(), frozenset())


def test_assignment_totality():
    oracle = OracleAssignment(2, frozenset({"01"}))
    assert oracle.value("01") == 1 and oracle.value("00") == 0
    with pytest.raises(OracleError):
        oracle.value("000")


def test_condition_shape_validation():
    domain = frozenset(range(5))
    TowerCondition(frozenset({2, 4}), domain, frozenset({"10", "0011"}))
    with pytest.raises(ModelError):  # no string at an acceptable covered length
        TowerCondition(frozenset({2, 4}), domain, frozenset({"10"}))
    with pytest.raises(ModelError):  # two strings at one length
        TowerCondition(frozenset({2}), domain, frozenset({"10", "01"}))
    with pytest.raises(ModelError):  # value 1 away from acceptable lengths
        TowerCondition(frozenset({2}), domain, frozenset({"10", "011"}))
    with pytest.raises(ModelError):  # 3 is not a tower value
        TowerCondition(frozenset({3}), domain, frozenset({"011"}))
    with pytest.raises(ModelError, match="^'000' lies outside the condition's domain$"):
        TowerCondition(frozenset({2}), frozenset({0, 1, 2}), frozenset({"000"}))


def test_condition_values_and_domain():
    condition = TowerCondition(
        frozenset({2}), frozenset({0, 1, 2}), frozenset({"10"})
    )
    assert condition.value("10") == 1 and condition.value("01") == 0
    with pytest.raises(DomainError):
        condition.value("0000")
    with pytest.raises(DomainError):
        condition.to_assignment(4)


def test_oracle_free_probability_matches_plain():
    system = oracle_free_system()
    inst = system.instance("")
    for ones in (frozenset(), frozenset({"0", "111"})):
        rel = acceptance_prob_rel(system, OracleAssignment(3, ones))
        assert rel == accept_probability(inst.system)


def test_classical_query_decides():
    system = classical_route_system("101")
    hit = OracleAssignment(3, frozenset({"101"}))
    miss = OracleAssignment(3, frozenset())
    assert acceptance_prob_rel(system, hit).is_one()
    assert acceptance_prob_rel(system, miss).is_zero()


def test_assignment_must_cover_queries():
    system = classical_route_system("101")
    with pytest.raises(OracleError):
        acceptance_prob_rel(system, OracleAssignment(2, frozenset()))


def test_magnitudes_and_sensitive_sets():
    free = oracle_free_system()
    oracle3 = OracleAssignment(3, frozenset())
    assert query_magnitudes(free, oracle3) == {}
    assert verify_flip_stability(free, oracle3, "", params_for(free)).sensitive == frozenset()

    route = classical_route_system("101")
    mags = query_magnitudes(route, oracle3)
    assert mags == {"101": Fraction(1)}
    assert verify_flip_stability(route, oracle3, "", params_for(route)).sensitive == {"101"}


def test_split_magnitude_is_fractional():
    system = phase_split_system("00")
    mags = query_magnitudes(system, OracleAssignment(3, frozenset()))
    assert mags == {"00": Fraction(9, 25)}


def _reference_magnitudes(system, oracle):
    """Sum of Fraction(amp**2, 25**step) over each query slot of the run's vectors."""
    key = gapsim.oracle._key(system, oracle.value)
    base = system.system
    vectors = list(trajectory(base, base.t_bound, lambda k: system._blocks_at(k, key)))
    magnitudes = {}
    for step, slots in system.query_slots.items():
        for config, y in slots.items():
            weight = Fraction(vectors[step][config] ** 2, 25**step)
            if weight:
                magnitudes[y] = magnitudes.get(y, Fraction(0)) + weight
    return list(magnitudes.items())


def test_integer_magnitudes_match_the_fraction_sum():
    systems = [s for _, s, _ in flip_stability_corpus()] + [s for _, s in decider_corpus()]
    conditions = [c for _, c in decider_conditions()]
    checked = 0
    for system in systems:
        oracles = [OracleAssignment(system.universe_length, frozenset())] + [
            c.to_assignment(system.universe_length)
            for c in conditions
            if set(range(system.universe_length + 1)) <= c.domain_lengths
        ]
        for oracle in oracles:
            got = list(query_magnitudes(system, oracle).items())
            assert got == _reference_magnitudes(system, oracle)
            checked += bool(got)
    assert checked > 0


def test_magnitude_at_the_threshold_is_not_sensitive():
    params = SensitivityParams(Fraction(1, 7), 1)
    at, denominator = 25**3, 196 * 25**3
    assert Fraction(at, denominator) == params.magnitude_threshold
    numerators = {"": at - 1, "0": at, "1": at + 1}
    assert gapsim.oracle._sensitive(numerators, denominator, params) == {"1"}


def test_bound_value():
    params = SensitivityParams(Fraction(1, 7), 1)
    assert params.bound == 196  # 4 * 1 * 49
    with pytest.raises(ModelError):
        SensitivityParams(Fraction(1, 6), 1)
    with pytest.raises(ModelError):
        SensitivityParams(Fraction(0), 1)
    with pytest.raises(ModelError, match="^running-time value must be positive$"):
        SensitivityParams(Fraction(1, 7), 0)


def test_flip_stability_on_corpus_both_epsilons():
    for name, system, ones in flip_stability_corpus():
        oracle = OracleAssignment(system.universe_length, ones)
        for eps in (Fraction(1, 7), Fraction(1, 10)):
            params = SensitivityParams(eps, system.p(0))
            report = verify_flip_stability(system, oracle, "", params)
            assert report.ok, f"{name} at eps={eps}"
            assert len(report.sensitive) <= params.bound


def _hybrid_rows():
    """(case, y, k_y, m_y, deviation) for every string that a case's base run reads."""
    chains = [(f"deep_chain_{L}", deep_chain_system(11, "101", L), frozenset()) for L in (6, 8)]
    for name, system, ones in flip_stability_corpus() + chains:
        base = OracleAssignment(system.universe_length, ones)
        p = acceptance_prob_rel(system, base).as_fraction()
        magnitudes = query_magnitudes(system, base)
        for y in sorted(system.queried_strings()):
            k = sum(y in slots.values() for slots in system.query_slots.values())
            flipped = OracleAssignment(system.universe_length, ones ^ {y})
            deviation = acceptance_prob_rel(system, flipped).as_fraction() - p
            yield name, y, k, magnitudes[y], deviation


def test_flips_obey_the_hybrid_bound():
    """BBBV's hybrid argument: flipping y moves the acceptance probability by
    at most 4*sqrt(k_y * m_y), where k_y counts the query steps that read y
    and m_y is y's query magnitude in the base run; checked squared, exactly."""
    rows = list(_hybrid_rows())
    assert len(rows) == 17
    for name, y, k, m, deviation in rows:
        assert deviation**2 <= 16 * k * m, (name, y)
    tightest = max(deviation**2 / (16 * k * m) for _, _, k, m, deviation in rows)
    assert tightest == Fraction(2304, 15625)  # phase_split's 00: (576/625)**2 against 16 * 9/25


def test_ok_holds_the_hybrid_bound_to_the_last_magnitude_unit():
    """ok also checks the hybrid bound, exactly: with phase_split's stored
    magnitude numerator of 00 lowered to the least one that the bound admits
    for its flip, ok holds, and one unit less breaks it."""
    system, oracle = phase_split_system("00"), OracleAssignment(3, frozenset())
    params = params_for(system)
    report = verify_flip_stability(system, oracle, "", params)
    assert report.ok and report.sensitive == {"00"}
    key = gapsim.oracle._key(system, oracle.value)
    prob, numerators, denominator = system._outcomes[key]
    deviation = dict(report.rows)["00"]
    assert system._query_steps == {"00": 1}  # k = 1: one step reads 00
    least = math.ceil(deviation**2 / 16 * denominator)
    assert 0 < least < numerators["00"]
    for magnitude, ok in ((least, True), (least - 1, False)):
        system._outcomes[key] = (prob, {**numerators, "00": magnitude}, denominator)
        system._sensitive_sets.clear()
        lowered = verify_flip_stability(system, oracle, "", params)
        assert lowered.ok is ok and lowered.rows == report.rows
        assert lowered.sensitive == {"00"} and lowered.max_outside_deviation == 0


def test_flip_stability_refuses_a_sensitive_set_past_its_bound():
    system = classical_route_system("101")
    params = params_for(system)
    params.__dict__["bound"] = 0  # the cached bound; "101" alone is sensitive
    with pytest.raises(ModelError, match="^sensitive set of size 1 exceeds the bound 0$"):
        verify_flip_stability(system, OracleAssignment(3, frozenset()), "", params)


def test_flip_deviation_zero_outside_single_query():
    system = classical_route_system("101")
    oracle = OracleAssignment(3, frozenset())
    report = verify_flip_stability(system, oracle, "", params_for(system))
    assert report.max_outside_deviation == 0
    inside = {row.string: row.deviation for row in report.rows}
    assert inside["101"] == 1  # the sensitive string flips the outcome entirely
    # under ones {"101"} that flip lowers P from 1 to 0: a negative integer gap
    hit = OracleAssignment(3, frozenset({"101"}))
    report = verify_flip_stability(system, hit, "", params_for(system))
    assert ("101", Fraction(1)) in report.rows
    assert all(row.deviation >= 0 for row in report.rows)


def test_deep_chain_query_escapes_sensitive_set():
    system = deep_chain_system(11, "110")
    oracle = OracleAssignment(3, frozenset())
    params = params_for(system)
    mags = query_magnitudes(system, oracle)
    assert mags["110"] == Fraction(9, 25) ** 11
    assert mags["110"] > 0
    report = verify_flip_stability(system, oracle, "", params)
    assert "110" not in report.sensitive
    assert report.ok


def test_global_phase_never_matters():
    system = global_phase_system("111")
    oracle = OracleAssignment(3, frozenset())
    report = verify_flip_stability(system, oracle, "", params_for(system))
    assert report.max_outside_deviation == 0
    assert all(row.deviation == 0 for row in report.rows)


def test_four_way_system_is_not_categorical():
    system = four_way_phase_system()
    with pytest.raises(CategoricalityError) as info:
        categorical_check(system, "")
    witness = info.value.witness
    oracle = OracleAssignment(3, frozenset(witness))
    prob = acceptance_prob_rel(system, oracle).as_fraction()
    assert Fraction(1, 3) < prob < Fraction(2, 3)


def test_decider_corpus_is_categorical():
    for name, system in decider_corpus():
        categorical_check(system, "0")


def assignment_from(condition, system):
    return condition.to_assignment(system.universe_length)


def test_decider_matches_truth_and_stays_frugal():
    system = classical_route_system("101")  # universe too small for length 4
    condition = TowerCondition(
        frozenset({2}), frozenset({0, 1, 2, 3}), frozenset({"10"})
    )
    result = rerelativized_decide(system, condition, "", params_for(system))
    truth = acceptance_prob_rel(system, assignment_from(condition, system))
    assert result.accept == (truth.as_fraction() >= Fraction(2, 3))
    assert len(result.query_log) <= result.probe_budget


def test_decider_probes_only_shorts_and_sensitive():
    _, condition = decider_conditions()[0]
    for name, system in decider_corpus():
        result = rerelativized_decide(system, condition, "0", params_for(system, "0"))
        allowed = {y for y in result.query_log if len(y) == 2}
        long_probes = [y for y in result.query_log if len(y) == 4]
        assert len(allowed) == 4  # the short length is read exhaustively
        assert set(long_probes) <= set(result.sensitive)
        universe = sum(1 << n for n in range(system.universe_length + 1))
        assert len(result.query_log) < universe


def test_decider_every_long_placement():
    for name, system in decider_corpus():
        for cond_name, condition in decider_conditions():
            result = rerelativized_decide(
                system, condition, "0", params_for(system, "0"), check_categorical=False
            )
            truth = acceptance_prob_rel(system, assignment_from(condition, system)).as_fraction()
            assert result.accept == (truth >= Fraction(2, 3)), (name, cond_name)


def _reference_decide(system, condition, x, params):
    """The decider as its docstring states it, from the public entry points."""
    lengths = sorted(condition.acceptable_lengths & condition.domain_lengths)
    short = [n for n in lengths if 2**n <= 8]
    long_lengths = [n for n in lengths if 2**n > 8]
    query_log = [y for n in short for y in strings_of_length(n)]
    ones = frozenset(y for y in query_log if condition.value(y))
    assumed = OracleAssignment(system.universe_length, ones)
    threshold = params.epsilon**2 / (4 * params.p_value**2)
    above = {y for y, m in query_magnitudes(system, assumed).items() if m > threshold}
    assert len(above) <= params.bound
    sensitive = frozenset(y for y in above if long_lengths and len(y) == long_lengths[0])
    found = None
    for y in sorted(sensitive):
        query_log.append(y)
        if condition.value(y):
            found = y
    final = assumed if found is None else OracleAssignment(system.universe_length, ones | {found})
    prob = acceptance_prob_rel(system, final).as_fraction()
    assert not Fraction(1, 3) < prob < Fraction(2, 3)
    return DeciderResult(
        accept=prob >= Fraction(2, 3),
        query_log=tuple(query_log),
        sensitive=sensitive,
        found_long_string=found,
        probe_budget=params.bound + sum(2**n for n in short),
    )


def _short_and_long_system():
    """Classical chain: accept only if "10" (a short length) and "0110" (the long one) are 1."""
    d = Draft()
    s, sp = d.cfg("s"), d.cfg("s_p")
    u, dead1, up = d.cfg("u"), d.cfg("dead1"), d.cfg("u_p")
    hit, dead2 = d.cfg("hit"), d.cfg("dead2")
    d.cond_swap(s, sp, dead1, u, "10", 0)
    d.cond_swap(u, up, dead2, hit, "0110", 1)
    d.delay_chain(dead1, "sink1", 1)
    return d.query_system(s, hit, 2, 4)


def test_decider_matches_its_reference_on_the_corpus():
    # the last machine's decision needs a short string's bit and the found long string's
    for name, system in decider_corpus() + [("short_and_long", _short_and_long_system())]:
        for cond_name, condition in decider_conditions():
            for x in ("", "0", "1", "00", "0110"):
                params = params_for(system, x)
                want = _reference_decide(system, condition, x, params)
                assert rerelativized_decide(system, condition, x, params) == want, (
                    name,
                    cond_name,
                    x,
                )


@st.composite
def _drawn_decisions(draw):
    """A drawn machine, a decider condition and an input.

    Half the draws take a condition whose long string the machine queries,
    when it queries one; universe length 1 puts the short strings past it.
    """
    system, _ones = draw(draft_query_systems(st.sampled_from((4, 3, 1))))
    conditions = [condition for _, condition in decider_conditions()]
    long_queried = {y for y in system.queried_strings() if len(y) == 4}
    queried = [c for c in conditions if c.ones & long_queried]
    pool = queried if queried and draw(st.booleans()) else conditions
    return system, draw(st.sampled_from(pool)), draw(st.sampled_from(("", "0110")))


# the magnitude of "0110" is (9/25)**10, between the thresholds at 1/10 and 1/7 (p = 11)
_DEEP_TEN = deep_chain_system(10, "0110", universe_length=4)


def _result_or_refusal(decide, *args):
    try:
        return decide(*args)
    except GapsimError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(case=_drawn_decisions())
@example(case=(_short_and_long_system(), dict(decider_conditions())["cond_10_0110"], ""))
@example(case=(_short_and_long_system(), dict(decider_conditions())["cond_10_0000"], "0110"))
@example(case=(_DEEP_TEN, dict(decider_conditions())["cond_00_0110"], ""))
def test_decider_matches_its_reference_on_drawn_machines(case):
    # the examples decide with a found long string ("0110") and with none,
    # and on a machine whose "0110" is sensitive at epsilon 1/10 and not at
    # 1/7; one machine decides at each epsilon in turn, so the sensitive
    # sets it stores must be told apart by threshold and bound
    system, condition, x = case
    if system.categorical_witness is not None:
        return
    for eps in (Fraction(1, 7), Fraction(1, 10), Fraction(1, 7)):
        params = SensitivityParams(eps, system.p(len(x)))
        want = _result_or_refusal(_reference_decide, system, condition, x, params)
        assert _result_or_refusal(rerelativized_decide, system, condition, x, params) == want


def test_stored_sensitive_sets_are_told_apart_by_threshold_under_one_bound():
    condition = dict(decider_conditions())["cond_00_0110"]
    over = SensitivityParams(Fraction(665127, 5000000), 11)
    under = SensitivityParams(Fraction(83141, 625000), 11)
    assert over.bound == under.bound == 27352
    assert over.magnitude_threshold < Fraction(9, 25) ** 10 <= under.magnitude_threshold
    found = []
    for params in (over, under, over):
        result = rerelativized_decide(_DEEP_TEN, condition, "", params)
        assert result == _reference_decide(_DEEP_TEN, condition, "", params)
        found.append(result.found_long_string)
    assert found == ["0110", None, "0110"]


def test_a_refusal_past_the_bound_is_never_stored():
    system = _short_and_long_system()
    condition = dict(decider_conditions())["cond_10_0110"]
    oracle = condition.to_assignment(system.universe_length)
    params = params_for(system)
    want = _reference_decide(system, condition, "", params)
    assert rerelativized_decide(system, condition, "", params) == want  # warm: stored sets
    verify_flip_stability(system, oracle, "", params)
    tight = params_for(system)
    tight.__dict__["bound"] = 1  # the cached bound; "10" and "0110" are sensitive
    for call, given in ((rerelativized_decide, condition), (verify_flip_stability, oracle)):
        for _ in range(2):  # a stored refusal, or a stored set, would change the second call
            with pytest.raises(ModelError, match="^sensitive set of size 2 exceeds the bound 1$"):
                call(system, given, "", tight)
    assert rerelativized_decide(system, condition, "", params) == want


def test_decider_result_is_a_tuple_of_five_named_fields():
    system = _short_and_long_system()
    params = params_for(system)
    result = rerelativized_decide(
        system, dict(decider_conditions())["cond_10_0110"], "", params
    )
    assert DeciderResult._fields == (
        "accept", "query_log", "sensitive", "found_long_string", "probe_budget"
    )
    for name in DeciderResult._fields:
        with pytest.raises(AttributeError):
            setattr(result, name, None)
    # the fields perfbench reads, and the plain tuple a result equals
    assert result.accept is True and result.found_long_string == "0110"
    assert result.query_log == ("00", "01", "10", "11", "0110")
    assert result.probe_budget == params.bound + 4
    shown = (True, result.query_log, frozenset({"0110"}), "0110", params.bound + 4)
    assert result == shown and tuple(result) == shown


def test_a_warm_decision_builds_no_assignment_and_reads_each_long_probe_once(monkeypatch):
    system = _short_and_long_system()
    params = params_for(system)
    conditions = [condition for _, condition in decider_conditions()]
    for condition in conditions:  # fills the table and every condition's plan
        rerelativized_decide(system, condition, "", params)
    built, reads = [], []
    post_init, value = OracleAssignment.__post_init__, TowerCondition.value
    monkeypatch.setattr(
        OracleAssignment, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    monkeypatch.setattr(TowerCondition, "value", lambda self, y: reads.append(y) or value(self, y))
    found, probed = [], 0
    for condition in conditions:
        reads.clear()
        result = rerelativized_decide(system, condition, "", params)
        assert reads == [y for y in result.query_log if len(y) == 4]
        probed += bool(reads)
        found.append(result.found_long_string)
    assert built == []
    assert probed == 16 and found.count("0110") == 1  # "0110" is probed when "10" is set


_TWO_LONG = TowerCondition(
    frozenset({2, 4, 16}), frozenset(range(17)), frozenset({"10", "0110", "0" * 16})
)
_SHORT_ONE = TowerCondition(frozenset({2}), frozenset(range(5)), frozenset({"10"}))


def _narrow_machine():
    # no queries, universe of length 1: the condition's short "10" lies past it
    return OracleQuerySystem(make_system(1, [(0, 0, 5)], 0, 0, 1), {}, {}, 1)


@pytest.mark.parametrize(
    "system,condition,refusal",
    [
        (
            oracle_free_system(),
            _TWO_LONG,
            ModelError(
                "lengths [4, 16] all exceed the probe budget; tower spacing admits at most one"
            ),
        ),
        (_narrow_machine(), _SHORT_ONE, OracleError("'10' is longer than the declared universe")),
        (
            four_way_phase_system(),
            _SHORT_ONE,
            CategoricalityError(
                "probability 9216/15625 on input '01' under bits "
                "{'000': 0, '001': 0, '010': 1, '011': 0}"
            ),
        ),
        # several faults: the promise first, then the long lengths, then the universe
        (
            four_way_phase_system(),
            _TWO_LONG,
            CategoricalityError(
                "probability 9216/15625 on input '01' under bits "
                "{'000': 0, '001': 0, '010': 1, '011': 0}"
            ),
        ),
        (
            _narrow_machine(),
            _TWO_LONG,
            ModelError(
                "lengths [4, 16] all exceed the probe budget; tower spacing admits at most one"
            ),
        ),
    ],
    ids=["two_long", "short_past_universe", "not_categorical", "promise_first", "lengths_first"],
)
def test_decider_refusals_keep_their_text_and_order(system, condition, refusal):
    with pytest.raises(type(refusal)) as info:
        rerelativized_decide(system, condition, "01", params_for(system, "01"))
    assert type(info.value) is type(refusal)
    assert str(info.value) == str(refusal)


def test_decider_promise_refusal_witnesses_the_entrys_fraction():
    d = Draft()  # one BLOCK_REFLECT step sends 3/5 of the start to accept: 9/25
    start, accept = d.cfg("start"), d.cfg("accept")
    d.block(start, d.cfg("spare"), accept, d.cfg("reject"))
    system = d.query_system(start, accept, 1, 4)
    with pytest.raises(CategoricalityError) as info:
        rerelativized_decide(system, _SHORT_ONE, "", params_for(system), check_categorical=False)
    assert str(info.value) == "simulation left the promise interval: 9/25"
    prob = acceptance_prob_rel(system, OracleAssignment(4, frozenset()))
    assert info.value.witness is prob.as_fraction() == Fraction(9, 25)


def test_decider_reads_the_short_lengths_once_per_condition(monkeypatch):
    reads = []
    value = TowerCondition.value
    monkeypatch.setattr(TowerCondition, "value", lambda self, y: reads.append(y) or value(self, y))
    conditions = [condition for _, condition in decider_conditions()]
    for _ in range(2):
        for condition in conditions:
            for name, system in decider_corpus():
                for x in ("", "0110"):
                    rerelativized_decide(system, condition, x, params_for(system, x))
    shorts = [y for y in reads if len(y) == 2]
    assert len(conditions) == 32 and len(shorts) == 32 * 4
    assert all(len(y) == 4 for y in reads if len(y) != 2)  # the long probes, per decision


def _column_in(blocks, config):
    """Sorted (row, numerator) entries of one configuration's column in (pairs, singles)."""
    pairs, singles = blocks
    column = [(r, w) for c, r, w in singles if c == config]
    for c1, c2, r1, r2, a, b, c, d in pairs:
        if config in (c1, c2):
            column += [(r1, a), (r2, c)] if config == c1 else [(r1, b), (r2, d)]
    return sorted((r, w) for r, w in column if w)


def test_runs_leave_the_shared_column_map_untouched():
    system = four_way_phase_system()
    inst = system.instance("")
    before = inst.system.blocks
    all_set = OracleAssignment(system.universe_length, inst.queried_strings())
    acceptance_prob_rel(system, all_set)
    query_magnitudes(system, all_set)
    assert inst.system.blocks is before
    step, slots = next(iter(inst.query_slots.items()))
    every_bit = (1 << len(inst.queried_strings())) - 1
    unset, patched = (inst._blocks_at(step, key) for key in (0, every_bit))
    for c in slots:
        assert _column_in(unset, c) == sorted(inst.system.columns[c])
        assert _column_in(patched, c) == sorted(inst.alt_columns[c])


def test_step_block_cache_reads_every_bit_and_splits_on_slots():
    system = deep_chain_system(11, "110")
    oracle = OracleAssignment(3, frozenset({"110"}))
    first = acceptance_prob_rel(system, oracle)
    with pytest.raises(OracleError):  # a second run still reads the uncovered bit
        acceptance_prob_rel(system, OracleAssignment(2, frozenset()))
    assert acceptance_prob_rel(system, oracle) == first
    assert list(system._step_blocks) == [11]  # the one query step; every other runs the base
    for step, (shared, (pairs, singles), gates) in system._step_blocks.items():
        slots = system.query_slots[step]
        assert pairs or singles
        assert all(c1 in slots or c2 in slots for c1, c2, *_ in pairs)
        assert all(c in slots for c, _r, _w in singles)
        assert not any(c1 in slots or c2 in slots for c1, c2, *_ in shared[0])
        assert not any(c in slots for c, _r, _w in shared[1])
        # one gate per slot, on its string's key bit, reading a slot's block column
        assert sorted(config for _bit, _source, config, _sign in gates) == sorted(slots)
        for bit, source, config, _sign in gates:
            assert bit == system._position[slots[config]] and source in slots


def test_a_step_with_an_empty_slot_map_runs_the_base_blocks():
    routed = classical_route_system("101")  # t = 2, a query at step 0
    padded = OracleQuerySystem(
        routed.system, {**routed.query_slots, 1: {}}, routed.alt_columns, routed.universe_length
    )
    assert list(padded._step_blocks) == [0]  # step 1 gets no entry
    assert padded._blocks_at(1, 1) is routed.system.blocks
    for ones in (frozenset(), frozenset({"101"})):
        oracle = OracleAssignment(3, ones)
        assert acceptance_prob_rel(padded, oracle) == acceptance_prob_rel(routed, oracle)
        assert query_magnitudes(padded, oracle) == query_magnitudes(routed, oracle)


MIXED_CAP = r"exceeds the cap 12 \(raise oracle\.MAX_MIXED_STRINGS\)$"


def test_exhaustive_bit_checks_refuse_thirteen_strings():
    one_step = Draft()  # a step reads any number of strings; the categorical check is capped
    for i in range(13):
        one_step.cond_phase(one_step.cfg(str(i)), format(i, "04b"), 0)
    spread = Draft()  # a 13-step route, one phase query per step
    chain = [spread.cfg("c0")]
    for step in range(13):
        chain.append(spread.cfg(f"c{step + 1}"))
        spread.route(chain[step], chain[step + 1])
        spread.cond_phase(chain[step], format(step, "04b"), step)
    systems = one_step.query_system(0, 0, 1, 4), spread.query_system(chain[0], chain[13], 13, 4)
    for system in systems:
        with pytest.raises(ResourceError, match="^strings the machine conditions on 13 " + MIXED_CAP):
            categorical_check(system, "")


IDENTITY_T1 = make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 1, 1)
IDENTITY_T2 = make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 1, 2)
IDENTITY4_T1 = make_system(4, [(i, i, 5) for i in range(4)], 0, 0, 1)
REFLECT_T1 = make_system(2, [(0, 0, 3), (0, 1, 4), (1, 0, 4), (1, 1, -3)], 0, 1, 1)
NEITHER = "^step {}: config {} reading '{}' is neither a phase nor a swap$"
# Left multiplication by the quaternion 1 + 2i + 2j + 4k (norm 25): its columns
# are orthogonal with squared norm 25, but 1, 2 and -2 are no fifth-integer numerators.
QUATERNION = {
    c: tuple(enumerate(col))
    for c, col in enumerate(((1, 2, 2, 4), (-2, 1, 4, -2), (-2, -4, 1, 2), (-4, 2, -2, 1)))
}


@pytest.mark.parametrize(
    "base,slots,alts,error,match",
    [
        (IDENTITY_T1, {1: {0: "0"}}, {0: ((0, -5),)}, StructuralError, "step 1 out of range"),
        (
            IDENTITY_T1, {0: {0: "0"}}, {}, StructuralError,
            "config 0 queries but has no alternative",
        ),
        (
            IDENTITY_T1, {0: {0: "0000"}}, {0: ((0, -5),)}, StructuralError,
            "'0000' outside the universe",
        ),
        (IDENTITY_T1, {0: {0: "0"}}, {0: ((1, 5),)}, StructuralError, NEITHER.format(0, 0, "0")),
        (
            IDENTITY_T1, {0: {-1: "0"}}, {-1: ((1, -5),)}, StructuralError,
            "^config -1 out of range$",
        ),
        (IDENTITY_T1, {0: {0: "0"}}, {0: ((2, 5),)}, StructuralError, NEITHER.format(0, 0, "0")),
        (  # 9 - 9 + 25: a norm of 25, but one entry three times
            IDENTITY_T1, {0: {0: "0"}}, {0: ((0, 3), (0, -3), (0, 5))}, StructuralError,
            NEITHER.format(0, 0, "0"),
        ),
        (
            IDENTITY_T1, {0: {0: "0"}}, {0: ((0, -5), (1, 0))}, StructuralError,
            NEITHER.format(0, 0, "0"),
        ),
        (
            IDENTITY4_T1, {0: {c: "1" for c in range(4)}}, QUATERNION, StructuralError,
            NEITHER.format(0, 0, "1"),
        ),
        (IDENTITY_T1, {0: {0: "0"}}, {0: ((0, 5),)}, StructuralError, NEITHER.format(0, 0, "0")),
        (
            IDENTITY_T2, {0: {0: "0"}, 1: {1: "0"}}, {0: ((1, 5),), 1: ((0, 5),)},
            StructuralError, NEITHER.format(0, 0, "0"),
        ),
        (
            IDENTITY_T1, {0: {0: "0", 1: "1"}}, {0: ((1, 5),), 1: ((0, 5),)}, StructuralError,
            NEITHER.format(0, 0, "0"),
        ),
        (
            IDENTITY_T1, {0: {1: "0", 0: "0"}}, {0: ((1, 5),), 1: ((1, -5),)}, StructuralError,
            NEITHER.format(0, 0, "0"),
        ),
    ],
    ids=[
        "slot_step_is_t",
        "no_alternative_column",
        "query_past_universe",
        "alt_breaks_gram",
        "slot_config_negative",
        "alt_row_past_n",
        "alt_repeats_a_row",
        "alt_explicit_zero",
        "alt_quaternion_numerators",
        "alt_is_its_own_column",
        "swap_partner_at_another_step",
        "swap_partner_reads_another_string",
        "one_sided_swap",
    ],
)
def test_oracle_machine_is_checked_when_built(base, slots, alts, error, match):
    for sound in (
        (IDENTITY_T1, {0: {0: "0"}}, {0: ((0, -5),)}),  # a phase
        (IDENTITY_T1, {0: {0: "0", 1: "0"}}, {0: ((1, 5),), 1: ((0, 5),)}),  # a swap
        (REFLECT_T1, {0: {0: "0"}}, {0: ((1, -4), (0, -3))}),  # a phase given unsorted
    ):
        OracleQuerySystem(*sound, 3)
    with pytest.raises(error, match=match):
        OracleQuerySystem(base, slots, alts, 3)


def _count_runs(monkeypatch):
    runs = []
    kernel = gapsim.oracle.trajectory

    def counted(*args):
        runs.append(args)
        return kernel(*args)

    monkeypatch.setattr(gapsim.oracle, "trajectory", counted)
    return runs


def test_one_run_per_assignment(monkeypatch):
    route, free = classical_route_system("101"), oracle_free_system()
    _, condition = decider_conditions()[0]  # lengths 2 and 4; 4 is probed frugally
    runs = _count_runs(monkeypatch)
    verify_flip_stability(route, OracleAssignment(3, frozenset()), "", params_for(route))
    assert len(runs) == 1 + 1  # the base bits once, then the flip of "101"; 14 flips read none
    runs.clear()
    rerelativized_decide(free, condition, "", params_for(free), check_categorical=False)
    assert len(runs) == 1
    runs.clear()
    system = or_of_two_system()
    categorical_check(system, "")
    assert len(runs) == 4
    runs.clear()
    conditions = [condition for _, condition in decider_conditions()]
    for condition in conditions:  # every decision reads the table the check filled
        rerelativized_decide(system, condition, "", params_for(system))
    assert len(conditions) == 32 and len(runs) == 0


def test_flip_rows_build_one_fraction_per_table_entry(monkeypatch):
    evolve = importlib.import_module("gapsim.evolve")  # gapsim.evolve is the function
    built, fraction = [], evolve.Fraction
    monkeypatch.setattr(evolve, "Fraction", lambda *args: built.append(args) or fraction(*args))
    system = deep_chain_system(11, "101", 8)
    oracle = OracleAssignment(8, frozenset())
    params = params_for(system)
    report = verify_flip_stability(system, oracle, "", params)
    assert len(report.rows) == 511
    assert len(built) == 2  # the base entry and the flip of "101"; 510 flips read the base
    built.clear()
    assert verify_flip_stability(system, oracle, "", params) == report
    assert built == []  # a warm call reads each entry's Fraction
    prob = acceptance_prob_rel(system, oracle)
    assert prob.as_fraction() is prob.as_fraction()


def test_a_warm_flip_check_compares_one_fraction(monkeypatch):
    system = deep_chain_system(11, "101", 8)
    oracle = OracleAssignment(8, frozenset())
    params = params_for(system)
    verify_flip_stability(system, oracle, "", params)
    calls = Counter()

    def counted(name, method):
        return lambda *args: calls.update((name,)) or method(*args)

    compare = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")  # != falls back on __eq__
    for name in compare + ("__sub__", "__rsub__", "__abs__", "__neg__"):
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    report = verify_flip_stability(system, oracle, "", params)
    # rows compare integers, and the sign of a row's integer gap orders its one
    # subtraction (no abs, no negation); ok compares the worst row with epsilon
    assert calls == {"__sub__": 511, "__le__": 1}
    monkeypatch.undo()
    assert report.ok and report.sensitive == frozenset()
    assert report.max_outside_deviation == max(row.deviation for row in report.rows)
    for row, string in zip(report.rows, strings_up_to(8)):
        assert row == (string, row.deviation)  # a named tuple equals the plain tuple


def test_categorical_check_runs_once_per_machine(monkeypatch):
    runs = _count_runs(monkeypatch)
    system = or_of_two_system()  # queries "00" and "10": four assignments
    categorical_check(system, "")
    assert len(runs) == 4
    runs.clear()
    categorical_check(system, "0110")  # another input runs the same machine
    assert len(runs) == 0
    categorical_check(or_of_two_system(), "")  # a fresh object checks afresh
    assert len(runs) == 4


# Each script runs in a fresh interpreter under a 1 GB address-space limit, so
# a machine that grows with t fails fast instead of taking the memory.  On
# Linux, ru_maxrss starts from the memory of the process a child was started
# from, so the script runs in a grandchild, started by a small interpreter.
_LAUNCH = (
    "import subprocess, sys; "
    "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
)

_BUILD_SCRIPT = """
import gapsim.model
from gapsim.corpus import cycle_system
from gapsim.oracle import OracleQuerySystem

calls = []
walk = gapsim.model.column_blocks  # every matrix check runs this walk
for t in (10, 10**6):
    base = cycle_system(3, 0, 1, t)
    gapsim.model.column_blocks = lambda *args: calls.append(args) or walk(*args)
    phase = OracleQuerySystem(base, {2: {0: "1"}}, {0: ((1, -5),)}, 1)
    gapsim.model.column_blocks = walk
    print(len(calls), len(phase._step_blocks))
"""

_RUN_SCRIPT = """
import resource
from gapsim.model import make_system
from gapsim.strings import strings_of_length
from gapsim.oracle import OracleAssignment, OracleQuerySystem, acceptance_prob_rel

t = 10**5
identity = make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 0, t)
phase = OracleQuerySystem(identity, {2: {0: "1"}}, {0: ((0, -5),)}, 1)
prob = acceptance_prob_rel(phase, OracleAssignment(1, frozenset({"1"})))
print(prob.numerator == 5 ** (2 * t), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _fresh_interpreter(script, timeout):
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    src = os.path.dirname(os.path.dirname(gapsim.oracle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCH, limit + script],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        check=True,
    )
    return done.stdout.splitlines()


def test_building_a_machine_costs_its_query_steps_whatever_t_is():
    # no matrix check and one cache entry, at t = 10 and at t = 10**6 alike
    assert _fresh_interpreter(_BUILD_SCRIPT, timeout=30) == ["0 1", "0 1"]
    short = OracleQuerySystem(
        make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 0, 9), {2: {0: "1"}}, {0: ((0, -5),)}, 1
    )
    for bit in (0, 1):
        prob = acceptance_prob_rel(short, OracleAssignment(1, frozenset({"1"} if bit else ())))
        assert prob.numerator == 5**18


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_a_long_run_keeps_one_vector():
    # t = 10**5 steps of an identity: the amplitude 5**k has about 2.3k bits,
    # so keeping every step's vector would hold about 1.5 GB
    exact, peak_kb = _fresh_interpreter(_RUN_SCRIPT, timeout=60)[0].split()
    assert exact == "True"
    assert int(peak_kb) < 100 * 1024


def test_categorical_failure_names_each_callers_input():
    system = four_way_phase_system()
    with pytest.raises(CategoricalityError, match="on input '' under") as first:
        categorical_check(system, "")
    with pytest.raises(CategoricalityError, match="on input '01' under") as second:
        categorical_check(system, "01")
    assert first.value.witness == second.value.witness


CORPUS_MACHINES = (
    [(f"flip_{name}", system) for name, system, _ones in flip_stability_corpus()]
    + [(f"decider_{name}", system) for name, system in decider_corpus()]
    + [("double_phase_unsorted", double_phase_system("10", "01"))]
)


@pytest.mark.parametrize(
    "system", [m for _, m in CORPUS_MACHINES], ids=[name for name, _ in CORPUS_MACHINES]
)
def test_outcome_reads_bits_in_the_runs_first_read_order(system):
    reads = []

    def bit_of(y):
        reads.append(y)
        return 1

    gapsim.oracle._key(system, bit_of)
    # a run first reads the strings of its earliest query step, in slot order
    steps = sorted(system.query_slots)
    assert reads == list(dict.fromkeys(y for k in steps for y in system.query_slots[k].values()))


def test_unsorted_slots_are_read_in_slot_order():
    reads = []
    gapsim.oracle._key(double_phase_system("10", "01"), lambda y: reads.append(y) or 0)
    assert reads == ["10", "01"]


class _Refusing:
    """An assignment whose value raises DomainError, naming the string, where refused(y)."""

    def __init__(self, refused):
        self.refused = refused

    def value(self, y):
        if self.refused(y):
            raise DomainError(f"no bit for {y!r}")
        return 1


@pytest.mark.parametrize(
    "system,oracle",
    [
        (or_of_two_system(), _Refusing(lambda y: y == "10")),
        (double_phase_system("10", "01"), _Refusing(lambda y: True)),  # "10" is read first
        (classical_route_system("101"), OracleAssignment(2, frozenset())),
        (
            deep_chain_system(11, "1010", universe_length=4),
            TowerCondition(frozenset({2}), frozenset(range(4)), frozenset({"10"})),
        ),
    ],
    ids=["refuses_10", "refuses_all", "universe_too_short", "condition_domain"],
)
def test_entry_points_refuse_as_the_run_does(system, oracle):
    refusals = []  # each string's refusal, in the run's first-read order
    for step in sorted(system.query_slots):
        for y in system.query_slots[step].values():
            try:
                oracle.value(y)
            except (OracleError, DomainError) as exc:
                refusals.append(exc)
    first = refusals[0]
    for call in (acceptance_prob_rel, query_magnitudes):
        with pytest.raises(type(first)) as by_entry:
            call(system, oracle)
        assert type(by_entry.value) is type(first)
        assert str(by_entry.value) == str(first)
    assert system._outcomes == {}


def test_sensitive_sets_stay_within_their_bound(monkeypatch):
    system = classical_route_system("101")  # built unpatched
    monkeypatch.setattr(gapsim.oracle, "MAX_MIXED_STRINGS", 1)
    oracle = OracleAssignment(3, frozenset())
    stored = []
    for eps in (Fraction(1, 7), Fraction(1, 8), Fraction(1, 9)):  # one new threshold each
        verify_flip_stability(system, oracle, "", SensitivityParams(eps, system.p(0)))
        stored.append(len(system._sensitive_sets))
    assert stored == [1, 2, 1]  # the third store found 2 = 2**MAX_MIXED_STRINGS and cleared
    assert len(system._outcomes) == 2  # kept: that clear was the sensitive sets' own


def test_outcome_table_stays_within_its_bound(monkeypatch):
    def flips(system, ones):
        return verify_flip_stability(system, OracleAssignment(3, ones), "", params_for(system))

    bases = [frozenset(ones) for ones in ((), ("01",), ("10",), ("01", "10"))]
    want = [flips(double_phase_system("01", "10"), ones) for ones in bases]
    system = double_phase_system("01", "10")  # built unpatched: one step reads both strings
    monkeypatch.setattr(gapsim.oracle, "MAX_MIXED_STRINGS", 1)
    sizes, held = [], []  # outcomes, and sensitive sets held when the outcomes cleared
    outcome = gapsim.oracle._outcome

    def watched(*args):
        full, sets = len(system._outcomes), len(system._sensitive_sets)
        result = outcome(*args)
        sizes.append(len(system._outcomes))
        if sizes[-1] < full:
            held.append(sets)
            assert system._sensitive_sets == {}
        return result

    monkeypatch.setattr(gapsim.oracle, "_outcome", watched)
    runs = _count_runs(monkeypatch)
    assert [flips(system, ones) for ones in bases] == want
    assert len(sizes) == 4 * (16 + 2) and max(sizes) == 2  # base, 15 rows, the 2 read flips again
    assert len(runs) > 4  # the table was cleared and refilled
    assert max(held) == 1  # the sensitive sets were held, and went with the outcomes
