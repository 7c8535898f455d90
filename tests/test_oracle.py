from fractions import Fraction

import pytest

import gapsim.oracle
from gapsim.corpus import (
    Draft,
    classical_route_system,
    decider_conditions,
    decider_corpus,
    deep_chain_system,
    flip_stability_corpus,
    four_way_phase_system,
    global_phase_system,
    or_of_two_system,
    oracle_free_system,
    phase_split_system,
)
from gapsim.errors import (
    AmplitudeError,
    CategoricalityError,
    DomainError,
    ModelError,
    OracleError,
    ResourceError,
    StructuralError,
)
from gapsim.evolve import accept_probability
from gapsim.model import make_system
from gapsim.oracle import (
    OracleAssignment,
    OracleQuerySystem,
    SensitivityParams,
    TowerCondition,
    acceptance_prob_rel,
    categorical_check,
    query_magnitudes,
    rerelativized_decide,
    tower,
    verify_flip_stability,
)

EPS = Fraction(1, 7)


def params_for(system, x=""):
    return SensitivityParams(EPS, system.p(len(x)))


def test_tower_values():
    assert tower(0) == 2
    assert tower(1) == 4
    assert tower(2) == 16
    assert tower(3) == 65536
    assert tower(4) == 2**65536
    for length in (2, 4, 16, 65536):
        TowerCondition(frozenset({length}), frozenset(), frozenset())
    for length in (0, 1, 3, 5, 15, 17, 65535, 65537):
        with pytest.raises(ModelError, match=rf"^lengths \[{length}\] are not tower values$"):
            TowerCondition(frozenset({length}), frozenset(), frozenset())


def test_condition_past_the_tower_budget_is_refused_by_tower():
    # Checking 2**65536 needs tower(5), whose exponent is over the budget.
    with pytest.raises(
        ResourceError,
        match=r"^tower\(5\) needs an exponent of 2\*\*65536, above 1048576 "
        r"\(raise oracle\._TOWER_EXPONENT_BUDGET\)$",
    ):
        TowerCondition(frozenset({2**65536}), frozenset(), frozenset())


def test_tower_budget_and_domain():
    with pytest.raises(
        ResourceError,
        match=r"^tower\(5\) needs an exponent of 2\*\*65536, above 1048576 "
        r"\(raise oracle\._TOWER_EXPONENT_BUDGET\)$",
    ):
        tower(5)
    with pytest.raises(StructuralError):
        tower(-1)


def test_assignment_totality():
    oracle = OracleAssignment(2, frozenset({"01"}))
    assert oracle.value("01") == 1 and oracle.value("00") == 0
    with pytest.raises(OracleError):
        oracle.value("000")
    flipped = oracle.flipped("01")
    assert flipped.value("01") == 0
    assert flipped.flipped("01") == oracle


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
    vectors = gapsim.oracle._run(system, oracle.value)[1]
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


def test_flip_stability_on_corpus_both_epsilons():
    for name, system, ones in flip_stability_corpus():
        oracle = OracleAssignment(system.universe_length, ones)
        for eps in (Fraction(1, 7), Fraction(1, 10)):
            params = SensitivityParams(eps, system.p(0))
            report = verify_flip_stability(system, oracle, "", params)
            assert report.ok, f"{name} at eps={eps}"
            assert len(report.sensitive) <= params.bound


def test_flip_deviation_zero_outside_single_query():
    system = classical_route_system("101")
    oracle = OracleAssignment(3, frozenset())
    report = verify_flip_stability(system, oracle, "", params_for(system))
    assert report.max_outside_deviation == 0
    inside = {row.string: row.deviation for row in report.rows}
    assert inside["101"] == 1  # the sensitive string flips the outcome entirely


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
    unset, patched = (inst._blocks_at(step, lambda _y: bit) for bit in (0, 1))
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
    reachable = {system.system.start}
    for step, (shared, _reads, patterns) in enumerate(system._step_blocks):
        slots = system.query_slots.get(step, {})
        assert len(patterns) == (2 if slots else 0)  # one query string
        for pairs, singles in patterns:
            assert pairs or singles
            assert all(c1 in slots or c2 in slots for c1, c2, *_ in pairs)
            assert all(c in slots for c, _r, _w in singles)
        assert not any(c1 in slots or c2 in slots for c1, c2, *_ in shared[0])
        assert not any(c in slots for c, _r, _w in shared[1])
        for pairs, singles in (shared, *patterns):  # only the forward cone is cached
            assert all(c1 in reachable or c2 in reachable for c1, c2, *_ in pairs)
            assert all(c in reachable for c, _r, _w in singles)
        alts = {c: system.alt_columns[c] for c in slots}
        reachable = {
            r
            for c in reachable
            for col in (system.system.columns[c], alts.get(c, ()))
            for r, _ in col
        }


def test_exhaustive_bit_checks_refuse_thirteen_strings():
    one_step = Draft()
    for i in range(13):
        one_step.cond_phase(one_step.cfg(str(i)), format(i, "04b"), 0)
    with pytest.raises(ResourceError, match="step 0 conditions on 13 strings.*cap of 12"):
        one_step.query_system(0, 0, 1, 4)
    spread = Draft()  # a 13-step route, one phase query per step
    chain = [spread.cfg("c0")]
    for step in range(13):
        chain.append(spread.cfg(f"c{step + 1}"))
        spread.route(chain[step], chain[step + 1])
        spread.cond_phase(chain[step], format(step, "04b"), step)
    system = spread.query_system(chain[0], chain[13], 13, 4)
    with pytest.raises(ResourceError, match="the machine conditions on 13 strings.*cap of 12"):
        categorical_check(system, "")


IDENTITY_T1 = make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 1, 1)
IDENTITY4_T1 = make_system(4, [(i, i, 5) for i in range(4)], 0, 0, 1)
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
        (
            IDENTITY_T1, {0: {0: "0"}}, {0: ((1, 5),)}, ModelError,
            r"^step 0 with bits \{'0': 1\}: not norm-preserving: inner product of columns "
            r"\(0,1\) is 25, expected 0$",
        ),
        (
            IDENTITY_T1, {0: {-1: "0"}}, {-1: ((1, -5),)}, StructuralError,
            "^config -1 out of range$",
        ),
        (
            IDENTITY_T1, {0: {0: "0"}}, {0: ((2, 5),)}, StructuralError,
            r"^step 0 with bits \{'0': 1\}: entry \(2,0\) out of range$",
        ),
        (  # 9 - 9 + 25: a norm of 25, but one entry three times
            IDENTITY_T1, {0: {0: "0"}}, {0: ((0, 3), (0, -3), (0, 5))}, StructuralError,
            r"^step 0 with bits \{'0': 1\}: duplicate matrix entries$",
        ),
        (
            IDENTITY_T1, {0: {0: "0"}}, {0: ((0, 5), (1, 0))}, AmplitudeError,
            r"numerator 0 at \(1,0\) not in the allowed set",
        ),
        (
            IDENTITY4_T1, {0: {c: "1" for c in range(4)}}, QUATERNION, AmplitudeError,
            r"numerator 1 at \(0,0\) not in the allowed set",
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
    ],
)
def test_oracle_machine_is_checked_when_built(base, slots, alts, error, match):
    OracleQuerySystem(IDENTITY_T1, {0: {0: "0"}}, {0: ((0, -5),)}, 3)  # a sound sign flip
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
    assert len(runs) == 1 + 15  # the base assignment once, then each of 15 flips
    runs.clear()
    rerelativized_decide(free, condition, "", params_for(free), check_categorical=False)
    assert len(runs) == 1


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


def test_step_cache_stops_once_the_cone_repeats(monkeypatch):
    calls = []
    kernel = gapsim.oracle._in_cone

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(gapsim.oracle, "_in_cone", counted)
    per_t = {}
    for t in (10, 10**6):
        identity = make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 0, t)
        OracleQuerySystem(identity, {}, {}, 1)
        no_slots = len(calls)
        phase = OracleQuerySystem(identity, {2: {0: "1"}}, {0: ((0, -5),)}, 1)
        per_t[t] = (no_slots, len(calls) - no_slots)
        calls.clear()
    # one step; then steps 0-3, the last repeating the cone, and step 2's two patterns
    assert per_t[10] == per_t[10**6] == (1, 6)
    short = OracleQuerySystem(
        make_system(2, [(0, 0, 5), (1, 1, 5)], 0, 0, 9), {2: {0: "1"}}, {0: ((0, -5),)}, 1
    )
    for bit in (0, 1):
        prob = acceptance_prob_rel(short, OracleAssignment(1, frozenset({"1"} if bit else ())))
        assert prob.numerator == 5**18


def test_categorical_failure_names_each_callers_input():
    system = four_way_phase_system()
    with pytest.raises(CategoricalityError, match="on input '' under") as first:
        categorical_check(system, "")
    with pytest.raises(CategoricalityError, match="on input '01' under") as second:
        categorical_check(system, "01")
    assert first.value.witness == second.value.witness
