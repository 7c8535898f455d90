"""The four workloads: seeded inputs, the timed job, and its reference check.

Every workload is a list of jobs generated once, during set-up, from the
seed.  A job's `run` is the timed call sequence into gapsim; `summarize`
reduces its result to what the check needs; `reference` recomputes the
answer independently (once per input key, outside the timed region) and
`agrees` compares the two.  `observe` runs only in traced passes, outside
the timed job, and records the per-layer counts.

Work per seed is kept nearly constant by drawing sizes from fixed grids and
only contents (permutations, blocks, strings, assignments) from the seed, so a
run's throughput depends on the code, not on the seed.
"""

from __future__ import annotations

import contextlib
import filecmp
import glob
import hashlib
import importlib
import io
import operator
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import inputs
import reference
from spans import Tracer

LAYER_NAMES = ("model", "evolve", "trees", "gapp", "lowness", "oracle", "corpus", "suites", "cli")

# `import gapsim.evolve as ev` would bind the *function* evolve that the
# package re-exports under the same name; import_module returns the module.
LAYERS = {name: importlib.import_module(f"gapsim.{name}") for name in LAYER_NAMES}
model, evolve, trees, gapp, lowness, oracle, corpus, suites, cli = (
    LAYERS[name] for name in LAYER_NAMES
)

strings = importlib.import_module("gapsim.strings")

OUT_DIR = ".perfbench"  # run outputs (spans, regenerated corpus), relative to the checkout


@dataclass
class Job:
    kind: str
    key: Any
    run: Callable[[Any], Any]
    summarize: Callable[[Any], Any]
    reference: Callable[[], Any]
    agrees: Callable[[Any, Any], bool] = operator.eq
    observe: Callable[[Any, Any, dict], None] | None = None


@dataclass
class Plan:
    jobs: list[Job]
    properties: dict  # input properties reported with every run
    inputs: list  # everything generated from the seed, for the determinism check

    def digest(self) -> str:
        return _digest(self.inputs)


def _add(counters: dict, name: str, value) -> None:
    counters.setdefault(name, []).append(value)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# --- simulate ---------------------------------------------------------------


def _validated(tracer, machine: dict):
    """Set-up validation: the generated system must pass model.make_system."""
    entries = [tuple(e) for e in machine["entries"]]
    return tracer.call(
        "model.make_system",
        model.make_system,
        machine["n_configs"],
        entries,
        machine["start"],
        machine["accept"],
        machine["t"],
    )


def _system_grid(rng, tracer, ns, ts) -> list[tuple[str, dict, Any]]:
    """(kind, machine dict, validated system) for every (kind, n, t) of the grid."""
    grid = []
    for kind in ("mixing", "banded"):
        for n in ns:
            for t in ts:
                machine = inputs.pb_system(rng, n, t, kind == "banded")
                grid.append((kind, machine, _validated(tracer, machine)))
    return grid


def _simulate_job(index: int, kind: str, machine: dict) -> Job:
    n, t = machine["n_configs"], machine["t"]
    cone: list[int] = []

    def run(tr):
        system = tr.call("model.build_system", model.build_system, machine)
        prob = tr.call("evolve.accept_probability", evolve.accept_probability, system)
        approx = tr.call("evolve.float_check", evolve.float_check, system)
        return prob, approx

    def summarize(raw):
        prob, approx = raw
        return prob.numerator, prob.log5_denominator, approx

    def ref():
        amp = reference.accept_amplitude(machine["entries"], machine["start"], machine["accept"], t)
        # The exact norm identity is checked on gapsim's own final vector.
        beta = evolve.evolve(model.build_system(machine), t)
        return amp * amp, sum(b * b for b in beta.entries) == 25**t, beta.entries[machine["accept"]] ** 2

    def agrees(summary, expected):
        numerator, log5, approx = summary
        want, norm_ok, beta_square = expected
        exact = float(Fraction(want, 5 ** (2 * t)))
        return (
            numerator == want == beta_square
            and log5 == 2 * t
            and norm_ok
            and abs(approx - exact) <= 1e-9
        )

    def observe(raw, _tr, counters):
        if not cone:
            cone.append(inputs.forward_cone_pairs(machine))
        _add(counters, "model.entries", len(machine["entries"]))
        _add(counters, "evolve.config_steps", n * t)
        _add(counters, "evolve.cone_pairs", cone[0])
        _add(counters, "evolve.all_pairs", n * (t + 1))
        _add(counters, "evolve.amp_bits", raw[0].numerator.bit_length())

    return Job(f"simulate_{kind}", index, run, summarize, ref, agrees, observe)


def setup_simulate(rng: random.Random, tracer, scale: str) -> Plan:
    ns, ts = {"full": ((256, 512, 1024, 2048), (25, 50, 100, 200)), "tiny": ((16, 32), (4, 8))}[scale]
    grid = _system_grid(rng, tracer, ns, ts)
    jobs = [_simulate_job(i, kind, machine) for i, (kind, machine, _system) in enumerate(grid)]
    properties = {
        "n": list(ns),
        "t": list(ts),
        "banded_share": sum(kind == "banded" for kind, _m, _s in grid) / len(grid),
        "systems": len(grid),
    }
    return Plan(jobs, properties, [machine for _kind, machine, _system in grid])


# --- gap_trees --------------------------------------------------------------


def _count_tree(tree, counters: dict) -> None:
    distinct, edges, leaves = reference.dag_counts(tree)
    _add(counters, "trees.distinct_nodes", distinct)
    _add(counters, "trees.edges", edges)
    _add(counters, "trees.unfolded_leaves", leaves)


def _round_trip_job(index: int, kind: str, system) -> Job:
    def run(tr):
        tree = tr.call("gapp.system_tree", gapp.system_tree, system)
        return tree, tr.call("trees.gap", trees.gap, tree)

    def ref():
        amp = reference.accept_amplitude(system.entries, system.start, system.accept, system.t_bound)
        return amp * amp

    def observe(raw, _tr, counters):
        _count_tree(raw[0], counters)

    return Job(f"round_trip_{kind}", ("rt", index), run, lambda raw: raw[1], ref, observe=observe)


def _combinator_job(op: str, name: str, machine, q: int, x: str) -> Job:
    combinator = getattr(gapp, op)

    def run(tr):
        tree = tr.call(f"gapp.{op}", lambda: combinator(machine, (q,)).evaluator(x))
        return tree, tr.call("trees.gap", trees.gap, tree, machine.branch_bound)

    def ref():
        if op == "exp_sum":
            return sum(gapp.gap_of(machine, strings.pair(x, y)) for y in reference.universe(q))
        product = 1
        for k in range(q + 1):
            product *= gapp.gap_of(machine, strings.pair(x, strings.index_string(k)))
        return product

    def observe(raw, _tr, counters):
        _count_tree(raw[0], counters)

    return Job(op, (op, name, q, x), run, lambda raw: raw[1], ref, observe=observe)


def _lowness_job(tracer, index: int, design: dict) -> Job:
    x, n = design["x"], len(design["x"])
    machine = lowness.OracleGapMachine(
        query_count=2,
        next_query=lambda x, answers: x if not answers else design["second"][answers[0]],
        finish=lambda _x, answers: inputs.signed_tree(design["outcomes"][tuple(answers)]),
    )
    instance = lowness.near_extreme_instance(machine, design["oracle"], (2, 4), (0, 4))
    g = 1 << (2 + 4 * n)
    valid, why = tracer.call("lowness.validate_instance", lowness.validate_instance, instance, [x])
    if not valid:
        raise RuntimeError(f"generated lowness instance is invalid: {why}")

    def run(tr):
        return tr.call(
            "lowness.verify_sign_preservation", lowness.verify_sign_preservation, instance, [x]
        )

    def summarize(report):
        row = report.rows[0]
        return row.true_gap, row.inlined_gap, row.sign_ok, row.error_within_budget, report.ok

    def agrees(summary, expected):
        true_gap, inlined_gap, sign_ok, within, ok = summary
        return (true_gap, inlined_gap) == expected and sign_ok and within and ok

    def observe(_raw, tr, counters):
        phase, tr.phase = tr.phase, "probe"
        try:
            inlined = tr.call("lowness.inline_construction", lowness.inline_construction, instance, x)
        finally:
            tr.phase = phase
        _count_tree(inlined.evaluator(x), counters)
        _add(counters, "lowness.tally_bits", g.bit_length())

    return Job(
        "sign_check", ("low", index), run, summarize,
        lambda: reference.inlined_gaps(design, g), agrees, observe,
    )


def _awpp_job(family, language, labeled_strings, m: int) -> Job:
    labeled = [(x, language(x)) for x in labeled_strings]

    def run(tr):
        cert = tr.call("gapp.bqp_to_awpp", gapp.bqp_to_awpp, family, (0, 1), labeled, [m])
        return tr.call("gapp.check_awpp", gapp.check_awpp, cert, labeled, m)

    def summarize(report):
        return report.ok, tuple((row.value, row.tally) for row in report.rows)

    def ref():
        rows = []
        for x, _member in labeled:
            system = family.system(x, m)
            amp = reference.accept_amplitude(system.entries, system.start, system.accept, system.t_bound)
            rows.append((amp * amp, 5 ** (2 * system.t_bound)))
        return True, tuple(rows)

    return Job("awpp_certify", ("awpp", tuple(labeled_strings), m), run, summarize, ref)


def setup_gap_trees(rng: random.Random, tracer, scale: str) -> Plan:
    # The eleven |x| = 2 sign checks cost the same for every seed and sit in
    # the middle of the job costs, so job_p50_ms falls inside them and not
    # between two round trips whose cost moves with the seed.  The five
    # |x| = 3 sign checks do the same for job_p90_ms in the top decile.
    grid = {
        "full": ((32, 64, 128, 256), (8, 16, 24), (9, 10, 11, 12), (2,) * 11 + (3,) * 5 + (4,), 2),
        "tiny": ((8, 16), (3,), (3, 4), (2,), 1),
    }
    ns, ts, qs, x_lengths, awpp_jobs = grid[scale]
    jobs: list[Job] = []
    generated: list = []
    for index, (kind, machine, system) in enumerate(_system_grid(rng, tracer, ns, ts)):
        jobs.append(_round_trip_job(index, kind, system))
        generated.append(machine)

    # The machine and the input length are fixed per slot, so the work is the
    # same for every seed (ones_squared at q = 12 alone costs ~0.27 s); the
    # seed draws the input bits.
    machines = tracer.call("corpus.gap_machine_corpus", corpus.gap_machine_corpus)
    for op, per_q, first in (("exp_sum", 2, 7), ("poly_product", 4, 1)):
        for slot, q in enumerate(q for q in qs for _ in range(per_q)):
            name, machine = machines[(first + 3 * slot) % len(machines)]
            x = inputs.binary_string(rng, slot % 4)
            jobs.append(_combinator_job(op, name, machine, q, x))
            generated.append((op, name, q, x))

    for index, n in enumerate(x_lengths):
        design = inputs.two_query_design(rng, n)
        jobs.append(_lowness_job(tracer, index, design))
        generated.append(
            (design["x"], design["second"], design["outcomes"], sorted(design["oracle"]))
        )

    family, language = tracer.call("corpus.amplified_family", corpus.amplified_family)
    for _ in range(awpp_jobs):
        labeled = [inputs.binary_string(rng, rng.randint(0, 3)) for _ in range(4)]
        m = rng.randint(4, 8)
        jobs.append(_awpp_job(family, language, labeled, m))
        generated.append((labeled, m))

    properties = {
        "round_trip_n": list(ns),
        "round_trip_t": list(ts),
        "banded_share": 0.5,
        "q": list(qs),
        "sign_check_g_bits": [2 + 4 * n + 1 for n in x_lengths],
        "jobs": len(jobs),
    }
    return Plan(jobs, properties, generated)


# --- oracle_lab -------------------------------------------------------------


def _flip_job(system, universe_length: int, ones: frozenset, epsilon: Fraction) -> Job:
    assignment = oracle.OracleAssignment(universe_length, ones)
    params = oracle.SensitivityParams(epsilon, system.p(0))

    def run(tr):
        return tr.call(
            "oracle.verify_flip_stability", oracle.verify_flip_stability, system, assignment, "", params
        )

    def summarize(report):
        rows = tuple((row.string, row.deviation) for row in report.rows)
        return report.ok, report.sensitive, report.max_outside_deviation, _digest(rows)

    def ref():
        sensitive, deviations, outside, ok = reference.flip_stability(
            system.instance(""), ones, universe_length, epsilon, system.p(0)
        )
        rows = tuple(zip(reference.universe(universe_length), deviations))
        return ok, sensitive, outside, _digest(rows)

    def agrees(summary, expected):
        return summary == expected and expected[0]

    def observe(_raw, _tr, counters):
        _add(counters, "oracle.runs", (2 << universe_length) - 1 + 2)

    return Job("flip_stability", ("flip", id(system), ones, epsilon), run, summarize, ref, agrees, observe)


def _decide_job(system, condition, x: str) -> Job:
    params = oracle.SensitivityParams(Fraction(1, 7), system.p(len(x)))
    categorical = x == ""

    def run(tr):
        return tr.call(
            "oracle.rerelativized_decide", oracle.rerelativized_decide,
            system, condition, x, params, check_categorical=categorical,
        )

    def summarize(result):
        return result.accept, len(result.query_log), result.probe_budget

    def ref():
        ones = frozenset(y for y in condition.ones if len(y) <= system.universe_length)
        return reference.oracle_probability(system.instance(x), ones) >= Fraction(2, 3)

    def agrees(summary, truth):
        accept, probes, budget = summary
        return accept == truth and probes <= budget

    def observe(result, _tr, counters):
        queried = len(system.instance(x).queried_strings())
        runs = 1 + (result.found_long_string is not None) + ((1 << queried) if categorical else 0)
        _add(counters, "oracle.runs", runs)
        _add(counters, "oracle.probes", len(result.query_log))
        _add(counters, "oracle.budget", result.probe_budget)

    return Job("decide", ("decide", id(system), id(condition), x), run, summarize, ref, agrees, observe)


def setup_oracle_lab(rng: random.Random, tracer, scale: str) -> Plan:
    lengths, depths, per_system = {
        "full": ((6, 7, 8, 9, 10), (5, 8, 11), 8),
        "tiny": ((3, 4), (3,), 2),
    }[scale]
    jobs: list[Job] = []
    generated: list = []
    for universe_length in lengths:
        for depth in depths:
            query = inputs.binary_string(rng, rng.randint(1, universe_length))
            system = tracer.call(
                "corpus.deep_chain_system", corpus.deep_chain_system, depth, query, universe_length
            )
            tracer.call("oracle.OracleQuerySystem.instance", system.instance, "")
            ones = rng.sample(reference.universe(universe_length), rng.randint(0, 3))
            epsilon = rng.choice((Fraction(1, 7), Fraction(1, 10)))
            jobs.append(_flip_job(system, universe_length, frozenset(ones), epsilon))
            generated.append((depth, query, universe_length, ones, epsilon))

    systems = tracer.call("corpus.decider_corpus", corpus.decider_corpus)
    conditions = tracer.call("corpus.decider_conditions", corpus.decider_conditions)
    # The condition and the input length are fixed per slot, so the work is
    # the same for every seed; the seed draws the input bits.
    for slot, (name, system) in enumerate(systems):
        for k in range(per_system):
            x = inputs.binary_string(rng, k % 6)
            cond_name, condition = conditions[(5 * (slot * per_system + k)) % len(conditions)]
            tracer.call("oracle.OracleQuerySystem.instance", system.instance, x)
            jobs.append(_decide_job(system, condition, x))
            generated.append((name, cond_name, x))

    properties = {
        "universe_length": list(lengths),
        "depth": list(depths),
        "flip_jobs": len(lengths) * len(depths),
        "decide_jobs": len(systems) * per_system,
        "max_input_length": min(per_system - 1, 5),
    }
    return Plan(jobs, properties, generated)


# --- verify -----------------------------------------------------------------

TINY_SUITES = ("lwpp", "awpp")
TINY_MACHINES = ("reflect_t1", "cycle7_t9")
TINY_TREES = ("const_seven",)


def _cli_job(argv: list[str]) -> Job:
    command = argv[0].replace("-", "_")

    def invoke(tr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(f"cli.{command}", cli.main, list(argv))
        return code, out.getvalue(), err.getvalue()

    def summarize(raw):
        code, out, err = raw
        return code, _digest((out, err))

    def agrees(summary, expected):
        return summary == expected and summary[0] == 0

    def observe(raw, tr, counters):
        _add(counters, "cli.report_bytes", len(raw[1].encode()))
        if argv[0] == "verify":
            phase, tr.phase = tr.phase, "probe"
            try:
                tr.call(f"suites.run_{argv[1]}", suites.RUNNERS[argv[1]], None)
            finally:
                tr.phase = phase

    def ref():
        return summarize(invoke(Tracer()))

    return Job(command, tuple(argv), invoke, summarize, ref, agrees, observe)


def _check_shipped_corpus(tracer) -> None:
    """Regenerate the corpus and require it to match the shipped files byte for byte."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as regenerated:
        written = tracer.call("corpus.write_corpus", corpus.write_corpus, regenerated)
        _match, mismatch, errors = filecmp.cmpfiles("corpus", regenerated, written, shallow=False)
    if mismatch or errors:
        raise RuntimeError(f"shipped corpus differs from the generator: {mismatch + errors}")


def setup_verify(rng: random.Random, tracer, scale: str) -> Plan:
    """The shipped campaign; paths are relative to the checkout (the working directory)."""
    _check_shipped_corpus(tracer)
    machine_paths = sorted(glob.glob(os.path.join("corpus", "machines", "*.json")))
    tree_paths = sorted(glob.glob(os.path.join("corpus", "trees", "*.json")))
    suite_names = list(suites.SUITES)
    if scale == "tiny":
        suite_names = list(TINY_SUITES)
        machine_paths = [p for p in machine_paths if os.path.basename(p)[:-5] in TINY_MACHINES]
        tree_paths = [p for p in tree_paths if os.path.basename(p)[:-5] in TINY_TREES]
    for path in machine_paths:
        tracer.call("model.load_system", model.load_system, path)
    commands = [["verify", name] for name in suite_names]
    commands += [["simulate", path] for path in machine_paths]
    commands += [
        ["gap-eval", path, "--input", inputs.binary_string(rng, rng.randint(0, 3))]
        for path in tree_paths
    ]
    commands.append(["lowness", "--bundle", os.path.join("corpus", "lowness", "fixed_query.json")])
    properties = {
        "suites": len(suite_names),
        "machines": len(machine_paths),
        "trees": len(tree_paths),
        "commands": len(commands),
    }
    return Plan([_cli_job(argv) for argv in commands], properties, commands)


SETUPS = {
    "simulate": setup_simulate,
    "gap_trees": setup_gap_trees,
    "oracle_lab": setup_oracle_lab,
    "verify": setup_verify,
}
