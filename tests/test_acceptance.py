"""Acceptance gate: each test prints one pass/fail line for its criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import time
from fractions import Fraction

from gapsim import corpus, suites
from gapsim.errors import PromiseViolation
from gapsim.evolve import accept_probability, evolve, float_check, path_sum
from gapsim.gapp import (
    bqp_to_awpp,
    check_awpp,
    check_ceqp,
    check_lwpp,
    eqp_to_lwpp,
    gap_of,
    system_to_gap_machine,
)
from gapsim.lowness import validate_instance, verify_sign_preservation
from gapsim.oracle import (
    OracleAssignment,
    SensitivityParams,
    acceptance_prob_rel,
    rerelativized_decide,
    verify_flip_stability,
)
from gapsim.strings import strings_up_to


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_gap_round_trip():
    systems = corpus.unitary_corpus()
    started = time.monotonic()
    assert len(systems) >= 20
    for name, system in systems:
        assert system.n_configs <= 64 and system.t_bound <= 10
        prob = accept_probability(system)
        machine_gap = gap_of(system_to_gap_machine(system), "")
        beta = path_sum(system, system.t_bound)
        assert prob.numerator == machine_gap, name
        assert prob.numerator == beta.entries[system.accept] ** 2, name
        assert abs(float_check(system) - float(prob.as_fraction())) <= 1e-9, name
    elapsed = time.monotonic() - started
    report(
        1,
        elapsed <= 60.0,
        f"{len(systems)} systems: numerator == machine gap == path square, "
        f"float within 1e-9, in {elapsed:.2f}s",
    )


def test_criterion_2_norm_conservation():
    checked = 0
    for name, system in corpus.unitary_corpus():
        for t in range(system.t_bound + 1):
            assert sum(e * e for e in evolve(system, t).entries) == 25**t, (name, t)
            checked += 1
    report(2, True, f"sum of squares equals 25**t exactly at {checked} steps")


def test_criterion_3_closure_soundness():
    ok, results = suites.run_closure()
    report(
        3,
        ok and results["machines"] >= 10 and results["inputs"] == 127,
        f"{results['comparisons']} comparisons over {results['machines']} machines "
        f"and {results['inputs']} inputs, {len(results['mismatches'])} mismatches",
    )


def test_criterion_4_awpp_certificates():
    labeled = [(x, corpus.parity_language(x)) for x in strings_up_to(3)]
    family, _ = corpus.zero_error_family()
    cert = bqp_to_awpp(family, (1, 1), labeled, paddings=[3, 5])
    zero_ok = all(check_awpp(cert, labeled, m=m).ok for m in (3, 5))

    amplified, _ = corpus.amplified_family()
    q_coeffs = (0, 1)  # q(m) = m
    amplified_ok = True
    for m in range(1, 9):
        subset = [(x, member) for x, member in labeled if len(x) <= m]
        cert = bqp_to_awpp(amplified, q_coeffs, subset, paddings=[m])
        amplified_ok = amplified_ok and check_awpp(cert, subset, m=m).ok

    leaky, _ = corpus.leaky_family()
    try:
        bqp_to_awpp(leaky, (2,), labeled, paddings=[3])
        refused, witness = False, None
    except PromiseViolation as exc:
        refused, witness = True, exc.witness
    report(
        4,
        zero_ok and amplified_ok and refused,
        f"zero-error and q(m)=m certificates verified for m <= 8; "
        f"leaky family refused with witness {witness!r}",
    )


def test_criterion_5_lwpp_certificates():
    labeled = [(x, corpus.parity_language(x)) for x in strings_up_to(3)]
    family, _ = corpus.zero_error_family()
    cert = eqp_to_lwpp(family, labeled)
    zero_ok = check_lwpp(cert, labeled).ok

    leaky, _ = corpus.leaky_family()
    try:
        eqp_to_lwpp(leaky, labeled)
        refused, witness = False, None
    except PromiseViolation as exc:
        refused, witness = True, exc.witness
    report(
        5,
        zero_ok and refused,
        f"zero-error family certified with g = 5**(2t); "
        f"16/25 family refused with witness {witness!r}",
    )


def test_criterion_6_lowness_sign_preservation():
    instances = corpus.lowness_corpus()
    assert len(instances) >= 10
    all_ok = True
    for name, instance, inputs in instances:
        valid, why = validate_instance(instance, inputs)
        assert valid, f"{name}: {why}"
        all_ok = all_ok and verify_sign_preservation(instance, inputs).ok
    adversarial, inputs, fraction, no_gap = corpus.adversarial_lowness_instance()
    flips = verify_sign_preservation(adversarial, inputs).flips()
    undersized, _ = validate_instance(adversarial, inputs)
    report(
        6,
        all_ok and bool(flips) and not undersized,
        f"{len(instances)} instances sign-preserving; undersized budget flips "
        f"sign at member weight {fraction}% with wrong-branch gap {no_gap}",
    )


def test_criterion_7_flip_stability():
    systems = corpus.flip_stability_corpus()
    assert len(systems) >= 10
    checked = 0
    for name, system, ones in systems:
        universe = sum(1 << n for n in range(system.universe_length + 1))
        assert universe <= 16, name
        oracle = OracleAssignment(system.universe_length, ones)
        for eps in (Fraction(1, 7), Fraction(1, 10)):
            params = SensitivityParams(eps, system.p(0))
            flip_report = verify_flip_stability(system, oracle, "", params)
            assert flip_report.ok, (name, eps)
            assert len(flip_report.sensitive) <= params.bound
            checked += 1
    report(
        7,
        True,
        f"{checked} exhaustive flip sweeps over {len(systems)} systems at "
        "eps in {1/7, 1/10}",
    )


def test_criterion_8_frugal_decider():
    inputs = list(strings_up_to(6))
    conditions = corpus.decider_conditions()
    machines = corpus.decider_corpus()
    decisions = 0
    for name, system in machines:
        params_by_len = {
            n: SensitivityParams(Fraction(1, 7), system.p(n)) for n in range(7)
        }
        for cond_name, condition in conditions:
            full = condition.to_assignment(system.universe_length)
            for x in inputs:
                result = rerelativized_decide(
                    system,
                    condition,
                    x,
                    params_by_len[len(x)],
                    check_categorical=(x == ""),
                )
                truth = acceptance_prob_rel(system, full).as_fraction()
                assert result.accept == (truth >= Fraction(2, 3)), (name, cond_name, x)
                assert len(result.query_log) <= result.probe_budget
                universe = sum(1 << n for n in range(system.universe_length + 1))
                assert len(result.query_log) < universe
                decisions += 1
    report(
        8,
        True,
        f"{decisions} decisions agree with exhaustive simulation over "
        f"{len(conditions)} long-string placements x {len(inputs)} inputs, "
        "within the probe budget",
    )


def test_criterion_9_exact_zero_classification():
    systems = corpus.unitary_corpus()
    labeled = []
    float_disagreements = []
    for name, system in systems:
        prob = accept_probability(system)
        labeled.append((name, system, prob.is_zero()))
        if prob.is_zero() != (float_check(system) == 0.0):
            float_disagreements.append(name)
    all_ok = True
    for name, system, is_zero in labeled:
        machine = system_to_gap_machine(system)
        ceqp = check_ceqp(machine, [("", is_zero)])
        all_ok = all_ok and ceqp.ok
    report(
        9,
        all_ok and "interference_zero" in float_disagreements,
        f"{len(labeled)} systems classified by exact zero; float rounding "
        f"disagrees on {float_disagreements} yet the exact checker is unaffected",
    )
