"""Named verification suites aggregating the module-level checks.

Each suite returns (ok, results) where results is a JSON-ready structure;
the command-line front end serializes it, and the acceptance tests assert
on it directly.  Suites accept an optional corpus directory for the
file-based checks and fall back to the built-in corpus otherwise.
"""

from __future__ import annotations

import functools
import glob
import os
from fractions import Fraction
from typing import Callable

from . import corpus
from .errors import ModelError, ParseError, PromiseViolation
from .evolve import accept_probability, float_check, path_sum, trajectory
from .gapp import (
    GapMachine,
    bqp_to_awpp,
    check_awpp,
    check_lwpp,
    eqp_to_lwpp,
    exp_sum,
    gap_of,
    load_gap_machine,
    negate,
    poly_product,
    system_to_gap_machine,
)
from .lowness import validate_instance, verify_sign_preservation
from .model import UnitarySystem, load_system, make_system
from .oracle import (
    OracleAssignment,
    SensitivityParams,
    acceptance_prob_rel,
    rerelativized_decide,
    verify_flip_stability,
)
from .strings import index_string, pair, strings_up_to


def _corpus_files(corpus_dir: str, sub: str) -> list[tuple[str, str]]:
    """(name, path) of each corpus_dir/sub/*.json; corpus_dir must exist."""
    if not os.path.isdir(corpus_dir):
        raise ParseError(f"corpus directory {corpus_dir!r} is not a directory")
    paths = sorted(glob.glob(os.path.join(corpus_dir, sub, "*.json")))
    return [(os.path.basename(p)[:-5], p) for p in paths]


def _corpus_systems(corpus_dir: str | None) -> list[tuple[str, UnitarySystem]]:
    if corpus_dir is None:
        return corpus.unitary_corpus()
    return [(name, load_system(p)) for name, p in _corpus_files(corpus_dir, "machines")]


def run_unitarity(corpus_dir: str | None = None) -> tuple[bool, dict]:
    """Every corpus system validates; every single-entry nudge is rejected."""
    systems = _corpus_systems(corpus_dir)
    rejected = 0
    attempts = 0
    for _, system in systems:
        for index in range(min(len(system.entries), 6)):
            r, c, w = system.entries[index]
            for delta in (1, -1):
                nudged = w + delta
                if nudged == 0 or abs(nudged) in (1, 2) or abs(nudged) > 5:
                    continue
                attempts += 1
                entries = list(system.entries)
                entries[index] = (r, c, nudged)
                try:
                    make_system(
                        system.n_configs,
                        entries,
                        system.start,
                        system.accept,
                        system.t_bound,
                    )
                except ModelError:
                    rejected += 1
    ok = attempts == rejected and bool(systems)
    return ok, {
        "systems": len(systems),
        "perturbations_tried": attempts,
        "perturbations_rejected": rejected,
    }


def run_gaplem(corpus_dir: str | None = None) -> tuple[bool, dict]:
    """Probability numerator equals the machine gap and the path-sum square.

    Also checks the exact norm identity at every step and the float
    cross-check at 1e-9, and classifies the exact-zero systems against the
    float witness.
    """
    systems = _corpus_systems(corpus_dir)
    rows = []
    float_disagreements = []
    ok = True
    for name, system in systems:
        prob = accept_probability(system)
        machine_gap = gap_of(system_to_gap_machine(system), "")
        beta = path_sum(system, system.t_bound)
        path_square = beta.entries[system.accept] ** 2
        norms_ok = all(
            sum(a * a for a in amps) == 25**t
            for t, amps in enumerate(
                trajectory(system, system.t_bound, lambda _step: system.blocks)
            )
        )
        approx = float_check(system)
        float_ok = abs(approx - float(prob.as_fraction())) <= 1e-9
        exact_zero = prob.is_zero()
        if exact_zero != (approx == 0.0):
            float_disagreements.append({"system": name, "float": approx})
        row_ok = (
            prob.numerator == machine_gap == path_square and norms_ok and float_ok
        )
        ok = ok and row_ok
        rows.append(
            {
                "system": name,
                "numerator": prob.numerator,
                "log5_denominator": prob.log5_denominator,
                "machine_gap": machine_gap,
                "path_square": path_square,
                "norms_exact": norms_ok,
                "float_within_1e-9": float_ok,
                "exact_zero": exact_zero,
                "ok": row_ok,
            }
        )
    ok = ok and len(systems) >= 20
    return ok, {
        "systems": len(systems),
        "rows": rows,
        "float_zero_disagreements": float_disagreements,
    }


def run_closure(corpus_dir: str | None = None) -> tuple[bool, dict]:
    """Machine-level combinators match value-level gap arithmetic exhaustively.

    The brute-force references read each input's pair codes from
    strings.pair, built once for all machines; the combinators under test
    compute their own, over the machine memoized for this run: evaluation
    is pure, so each string's tree is built once, and a wrong code still
    evaluates another string.
    """
    machines = corpus.gap_machine_corpus()
    if corpus_dir is not None:
        for name, path in _corpus_files(corpus_dir, "trees"):
            machines.append((name, load_gap_machine(path)))
    universe = list(strings_up_to(6))
    references = [
        (
            x,
            [pair(x, y) for y in strings_up_to(1)],
            [pair(x, index_string(k)) for k in range(2)],
        )
        for x in universe
    ]
    mismatches = []
    checks = 0
    for name, machine in machines:
        machine = GapMachine(functools.cache(machine.evaluator))
        negated = negate(machine)
        summed = exp_sum(machine, (1,))
        product = poly_product(machine, (1,))
        for x, sum_codes, product_codes in references:
            base = gap_of(machine, x)
            checks += 3
            if gap_of(negated, x) != -base:
                mismatches.append({"machine": name, "x": x, "op": "negate"})
            want_sum = sum(gap_of(machine, code) for code in sum_codes)
            if gap_of(summed, x) != want_sum:
                mismatches.append({"machine": name, "x": x, "op": "exp_sum"})
            want_product = 1
            for code in product_codes:
                want_product *= gap_of(machine, code)
            if gap_of(product, x) != want_product:
                mismatches.append({"machine": name, "x": x, "op": "poly_product"})
    ok = not mismatches and len(machines) >= 10
    return ok, {
        "machines": len(machines),
        "inputs": len(universe),
        "comparisons": checks,
        "mismatches": mismatches,
    }


def run_awpp(_corpus_dir: str | None = None) -> tuple[bool, dict]:
    """Certificates for the error-free and amplified families; the leaky one refuses."""
    labeled = [(x, corpus.parity_language(x)) for x in strings_up_to(3)]
    results: dict = {}
    ok = True

    family, _ = corpus.zero_error_family()
    cert = bqp_to_awpp(family, (1, 1), labeled, paddings=[4])
    report = check_awpp(cert, labeled, m=4)
    results["zero_error_m4"] = {"ok": report.ok, "g": cert.g_value(4)}
    ok = ok and report.ok

    family, _ = corpus.amplified_family()
    labeled8 = [(x, corpus.parity_language(x)) for x in ("", "0", "1", "01", "11")]
    cert = bqp_to_awpp(family, (0, 1), labeled8, paddings=[8])
    report = check_awpp(cert, labeled8, m=8)
    results["amplified_q_m_at_8"] = {"ok": report.ok, "g": cert.g_value(8)}
    ok = ok and report.ok

    family, _ = corpus.leaky_family()
    try:
        bqp_to_awpp(family, (2,), labeled, paddings=[3])
        results["leaky_refused"] = {"ok": False}
        ok = False
    except PromiseViolation as exc:
        results["leaky_refused"] = {"ok": True, "witness": repr(exc.witness)}
    return ok, results


def run_lwpp(_corpus_dir: str | None = None) -> tuple[bool, dict]:
    """Exact-target certificates for error-free families; the leaky one refuses."""
    labeled = [(x, corpus.parity_language(x)) for x in strings_up_to(3)]
    results: dict = {}
    family, _ = corpus.zero_error_family()
    cert = eqp_to_lwpp(family, labeled)
    report = check_lwpp(cert, labeled)
    results["zero_error"] = {"ok": report.ok, "g_at_2": cert.g_value(2)}
    ok = report.ok
    family, _ = corpus.leaky_family()
    try:
        eqp_to_lwpp(family, labeled)
        results["leaky_refused"] = {"ok": False}
        ok = False
    except PromiseViolation as exc:
        results["leaky_refused"] = {"ok": True, "witness": repr(exc.witness)}
    return ok, results


def run_lowness(_corpus_dir: str | None = None) -> tuple[bool, dict]:
    """Sign preservation on the valid instances; a forced flip on the adversarial one."""
    rows = []
    ok = True
    for name, instance, inputs in corpus.lowness_corpus():
        valid, why = validate_instance(instance, inputs)
        report = verify_sign_preservation(instance, inputs)
        rows.append(
            {
                "instance": name,
                "valid": valid,
                "why": why,
                "sign_preserved": report.ok,
                "max_error_mass": max((r.error_mass for r in report.rows), default=0),
            }
        )
        ok = ok and valid and report.ok
    instance, inputs, fraction, no_gap = corpus.adversarial_lowness_search()
    adversarial = verify_sign_preservation(instance, inputs)
    flipped = bool(adversarial.flips())
    undersized, _ = validate_instance(instance, inputs)
    ok = ok and flipped and not undersized and len(rows) >= 10
    return ok, {
        "instances": rows,
        "adversarial": {
            "member_percent": fraction,
            "wrong_branch_gap": no_gap,
            "sign_flipped": flipped,
            "budget_violated": not undersized,
        },
    }


def run_bbbv(_corpus_dir: str | None = None) -> tuple[bool, dict]:
    """Exhaustive single-flip stability over every corpus system at epsilon 1/7 and 1/10."""
    rows = []
    ok = True
    count = 0
    for name, system, ones in corpus.flip_stability_corpus():
        count += 1
        assignment = OracleAssignment(system.universe_length, ones)
        for eps in (Fraction(1, 7), Fraction(1, 10)):
            params = SensitivityParams(eps, system.p(0))
            report = verify_flip_stability(system, assignment, "", params)
            rows.append(
                {
                    "system": name,
                    "epsilon": str(eps),
                    "sensitive": sorted(report.sensitive),
                    "size_bound": report.size_bound,
                    "max_outside_deviation": str(report.max_outside_deviation),
                    "ok": report.ok,
                }
            )
            ok = ok and report.ok
    return ok and count >= 10, {"systems": count, "rows": rows}


def run_rerelativize(_corpus_dir: str | None = None) -> tuple[bool, dict]:
    """Decider equals exhaustive simulation for every long-string placement."""
    rows = []
    ok = True
    inputs = ["", "0", "1", "00", "0110"]
    conditions = corpus.decider_conditions()
    systems = corpus.decider_corpus()  # built once, so each checks its promise once
    # One params per machine: its running time p is the same at every length.
    params = {name: SensitivityParams(Fraction(1, 7), s.p(0)) for name, s in systems}
    for cond_name, condition in conditions:
        for name, system in systems:
            full_universe = sum(1 << n for n in range(system.universe_length + 1))
            # Every input runs the same machine, so one exhaustive run is the
            # truth for all of them.
            assignment = condition.to_assignment(system.universe_length)
            truth = acceptance_prob_rel(system, assignment).as_fraction() >= Fraction(2, 3)
            for x in inputs:
                result = rerelativized_decide(system, condition, x, params[name])
                frugal = len(result.query_log) <= result.probe_budget
                agree = result.accept == truth
                row_ok = agree and frugal and len(result.query_log) < full_universe
                ok = ok and row_ok
                if not row_ok or x == "0110":
                    rows.append(
                        {
                            "condition": cond_name,
                            "system": name,
                            "x": x,
                            "decision": result.accept,
                            "truth": truth,
                            "queries": len(result.query_log),
                            "budget": result.probe_budget,
                            "ok": row_ok,
                        }
                    )
    return ok, {"rows": rows, "conditions": len(conditions)}


RUNNERS: dict[str, Callable[[str | None], tuple[bool, dict]]] = {
    "unitarity": run_unitarity,
    "closure": run_closure,
    "gaplem": run_gaplem,
    "awpp": run_awpp,
    "lwpp": run_lwpp,
    "lowness": run_lowness,
    "bbbv": run_bbbv,
    "rerelativize": run_rerelativize,
}
SUITES = tuple(RUNNERS)
READS_CORPUS = frozenset({"unitarity", "gaplem", "closure"})
