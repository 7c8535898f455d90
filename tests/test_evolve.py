import importlib
import inspect
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsim.corpus import (
    BLOCK_REFLECT,
    BLOCK_ROTATE,
    Draft,
    decider_corpus,
    double_phase_system,
    flip_stability_corpus,
    four_way_phase_system,
    leaky_family,
    or_of_two_system,
    rotation_system,
    sequential_query_system,
    unitary_corpus,
    zero_error_family,
)
from gapsim.cli import main
from gapsim.errors import BoundsError, ParseError, ResourceError, StructuralError
from gapsim.evolve import (
    ExactProbability,
    accept_probability,
    evolve,
    float_check,
    path_sum,
    trajectory,
)
from gapsim.gapp import system_tree
from gapsim.model import (
    UnitarySystem,
    build_system,
    load_system,
    make_system,
)
from gapsim.oracle import (
    OracleAssignment,
    OracleQuerySystem,
    SensitivityParams,
    _key,
    _outcome,
    _run,
    acceptance_prob_rel,
    verify_flip_stability,
)
from gapsim.strings import strings_up_to
from gapsim.trees import gap

from drafts import BLOCKS, draft_query_systems
from fingerprint import PRIMES, accept_numerator_mod

ROTATION = rotation_system(BLOCK_REFLECT, 0, 1, 1)
ROTATION_T2 = rotation_system(BLOCK_REFLECT, 0, 1, 2)
IDENTITY_SELF = make_system(1, [(0, 0, 5)], 0, 0, 3)

corpus = unitary_corpus()
corpus_ids = [name for name, _ in corpus]


def test_evolve_single_step():
    assert evolve(ROTATION, 1).entries == (3, 4)


def test_evolve_two_steps_is_scaled_identity():
    # V^2 = 25 I for the reflection block, so the start column returns home
    assert evolve(ROTATION_T2, 2).entries == (25, 0)


def test_evolve_zero_steps():
    vec = evolve(ROTATION, 0)
    assert vec.entries == (1, 0)


def test_evolve_bounds():
    with pytest.raises(BoundsError):
        evolve(ROTATION, 2)
    with pytest.raises(BoundsError):
        evolve(ROTATION, -1)


def test_accept_probability_rotation():
    prob = accept_probability(ROTATION)
    assert (prob.numerator, prob.log5_denominator) == (16, 2)
    assert prob.as_fraction() == Fraction(16, 25)


def test_accept_probability_zero():
    prob = accept_probability(ROTATION_T2)
    assert (prob.numerator, prob.log5_denominator) == (0, 4)


def test_accept_probability_unreduced_identity():
    prob = accept_probability(IDENTITY_SELF)
    # kept unreduced: 5**6 over 5**6, not 1/1
    assert (prob.numerator, prob.log5_denominator) == (5**6, 6)
    assert prob.is_one()


def test_path_sum_by_hand():
    # two length-2 paths back to the start: 3*3 and 4*4
    assert path_sum(ROTATION_T2, 2).entries[0] == 3 * 3 + 4 * 4


def test_path_sum_trivial_lengths():
    assert path_sum(ROTATION, 0).entries == (1, 0)
    assert path_sum(ROTATION, 1).entries == (3, 4)


def test_path_sum_refuses_a_length_past_the_running_time():
    with pytest.raises(BoundsError, match=r"^t=2 outside \[0, 1\]$"):
        path_sum(ROTATION, ROTATION.t_bound + 1)


def test_path_sum_cap(monkeypatch):
    system = rotation_system(BLOCK_REFLECT, 0, 1, 10)
    assert list(inspect.signature(path_sum).parameters) == ["system", "t"]  # no cap keyword
    monkeypatch.setenv("GAPSIM_MAX_PATHS", "100")
    with pytest.raises(
        ResourceError,
        match=r"^paths 101 exceeds the cap 100 \(raise GAPSIM_MAX_PATHS\)$",
    ):
        path_sum(system, 10)


def test_path_cap_env_override(monkeypatch):
    system = rotation_system(BLOCK_REFLECT, 0, 1, 10)
    monkeypatch.setenv("GAPSIM_MAX_PATHS", "100")
    with pytest.raises(ResourceError):
        path_sum(system, 10)
    monkeypatch.setenv("GAPSIM_MAX_PATHS", "2000")
    path_sum(system, 10)
    monkeypatch.setenv("GAPSIM_MAX_PATHS", "abc")
    with pytest.raises(ParseError, match="GAPSIM_MAX_PATHS"):
        path_sum(system, 10)


@pytest.mark.parametrize("name,system", corpus, ids=corpus_ids)
def test_path_sum_matches_evolve(name, system):
    assert path_sum(system, system.t_bound) == evolve(system, system.t_bound)


@pytest.mark.parametrize("name,system", corpus, ids=corpus_ids)
def test_norm_conserved_every_step(name, system):
    for t in range(system.t_bound + 1):
        assert sum(e * e for e in evolve(system, t).entries) == 25**t


@settings(deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(corpus) - 1),
    t=st.integers(min_value=0, max_value=10),
)
def test_norm_conserved_random(index, t):
    system = corpus[index][1]
    t = min(t, system.t_bound)
    assert sum(e * e for e in evolve(system, t).entries) == 25**t


def test_float_check_values():
    assert float_check(ROTATION) == pytest.approx(0.64, abs=1e-12)
    assert float_check(IDENTITY_SELF) == pytest.approx(1.0, abs=1e-12)
    assert float_check(ROTATION_T2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name,system", corpus, ids=corpus_ids)
def test_float_check_agreement(name, system):
    exact = float(accept_probability(system).as_fraction())
    assert abs(float_check(system) - exact) <= 1e-9


def test_classify_flags_leaky_promise():
    family, language = leaky_family()
    prob = {x: accept_probability(family.system(x)).as_fraction() for x in ["", "1", "11"]}
    # members land at 16/25, strictly between the thresholds
    assert language("") and Fraction(1, 3) < prob[""] < Fraction(2, 3)
    assert language("11") and Fraction(1, 3) < prob["11"] < Fraction(2, 3)
    assert not language("1") and prob["1"] <= Fraction(1, 3)


def test_classify_accepts_zero_error():
    family, language = zero_error_family()
    inputs = ["", "0", "1", "01", "11"]
    assert {language(x) for x in inputs} == {True, False}
    for x in inputs:
        prob = accept_probability(family.system(x)).as_fraction()
        assert prob >= Fraction(2, 3) if language(x) else prob <= Fraction(1, 3)


# --- the step kernel against a dict-scatter loop that shares no code with it


def _scatter_run(columns_at, start: int, t: int, one) -> list[dict[int, object]]:
    """Sparse vectors at steps 0..t; columns_at(k) maps config -> [(row, weight)].

    Configurations are visited in ascending order and zeros are dropped, so
    each row adds its terms in ascending column order, as a dense pass does.
    """
    current = {start: one}
    vectors = [current]
    for step in range(t):
        columns = columns_at(step)
        nxt: dict[int, object] = {}
        for c in sorted(current):
            for r, w in columns.get(c, ()):
                nxt[r] = nxt.get(r, one * 0) + w * current[c]
        current = {r: a for r, a in nxt.items() if a}
        vectors.append(current)
    return vectors


def _column_dict(entries, weight=lambda w: w) -> dict[int, list]:
    columns: dict[int, list] = {}
    for r, c, w in entries:
        columns.setdefault(c, []).append((r, weight(w)))
    return columns


def _dense(vector: dict, n: int, zero) -> list:
    return [vector.get(i, zero) for i in range(n)]


@st.composite
def pb_systems(draw, max_half=128, times=st.integers(min_value=0, max_value=40)):
    """V = P.B with B a direct sum of 2x2 blocks and P a permutation, n <= 2*max_half."""
    n = 2 * draw(st.integers(min_value=1, max_value=max_half))
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=n // 2, max_size=n // 2))
    perm = draw(st.permutations(range(n)))
    entries = [
        (perm[2 * k + i], 2 * k + j, w)
        for k, block in enumerate(blocks)
        for (i, j), w in zip(((0, 0), (0, 1), (1, 0), (1, 1)), block)
        if w
    ]
    config = st.integers(min_value=0, max_value=n - 1)
    return make_system(n, entries, draw(config), draw(config), draw(times))


@pytest.mark.parametrize("numerator,log5_denominator", [(26, 1), (-1, 0)])
def test_exact_probability_refuses_values_outside_the_unit_interval(numerator, log5_denominator):
    with pytest.raises(StructuralError, match=r"^probability outside \[0, 1\]$"):
        ExactProbability(numerator, log5_denominator)


def _assert_runs_match_scatter(system):
    """evolve, the exact numerator and float_check (bit for bit) against the scatter loop."""
    n, t = system.n_configs, system.t_bound
    want = _scatter_run(lambda _k: _column_dict(system.entries), system.start, t, 1)
    assert evolve(system, t).entries == tuple(_dense(want[-1], n, 0))
    prob = accept_probability(system)
    assert (prob.numerator, prob.log5_denominator) == (want[-1].get(system.accept, 0) ** 2, 2 * t)
    floats = _column_dict(system.entries, lambda w: w / 5.0)
    final = _scatter_run(lambda _k: floats, system.start, t, 1.0)[-1]
    assert float_check(system) == final.get(system.accept, 0.0) ** 2  # bit for bit
    return prob


@settings(max_examples=60, deadline=None)
@given(system=pb_systems())
def test_kernel_matches_dict_scatter_loop(system):
    n, t = system.n_configs, system.t_bound
    exact = _column_dict(system.entries)
    want = _scatter_run(lambda _k: exact, system.start, t, 1)
    got = list(trajectory(system, t, lambda _k: system.blocks))
    assert got == [_dense(v, n, 0) for v in want]
    _assert_runs_match_scatter(system)


def _banded_system(blocks, shift: int, start: int, accept: int, t: int):
    """V = P.B with B the given 2x2 blocks and P the cyclic shift i -> i + shift mod n."""
    n = 2 * len(blocks)
    entries = [
        ((2 * k + i + shift) % n, 2 * k + j, w)
        for k, block in enumerate(blocks)
        for (i, j), w in zip(((0, 0), (0, 1), (1, 0), (1, 1)), block)
        if w
    ]
    return make_system(n, entries, start, accept, t)


@st.composite
def banded_pb_systems(draw):
    """Banded P.B systems, n <= 256 and t <= 60: P is a cyclic shift by an odd amount.

    The accept configuration is the end of a drawn walk of length t from
    start along nonzero entries, or any configuration.
    """
    n = 2 * draw(st.integers(min_value=1, max_value=128))
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=n // 2, max_size=n // 2))
    shift = 2 * draw(st.integers(min_value=0, max_value=n // 2 - 1)) + 1
    start = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=60))
    system = _banded_system(blocks, shift, start, start, t)
    accept = start
    if draw(st.booleans()):
        for _ in range(t):
            accept = draw(st.sampled_from([r for r, _ in system.columns[accept]]))
    else:
        accept = draw(st.integers(min_value=0, max_value=n - 1))
    return _banded_system(blocks, shift, start, accept, t)


def test_fingerprint_matches_accept_probability_and_system_tree_on_the_corpus():
    for name, system in unitary_corpus():
        numerator, tree_gap = accept_probability(system).numerator, gap(system_tree(system))
        for p in PRIMES:
            assert accept_numerator_mod(system, p) == numerator % p == tree_gap % p, name


def _mixing_band(seed, t):
    """32 configurations: 16 2x2 blocks with no zero entry, shifted by 3; 2**t paths."""
    rng = random.Random(seed)
    pair_blocks = [block for block in BLOCKS if all(block)]
    return _banded_system([rng.choice(pair_blocks) for _ in range(16)], 3, 0, 5, t)


@settings(max_examples=8, deadline=None)
@given(system=pb_systems(max_half=16, times=st.sampled_from((1000, 4000))))
@example(system=_mixing_band(11, 4000))
def test_fingerprint_matches_accept_probability_past_the_path_cap(system):
    # path_sum refuses past 2**20 paths; a mixing system has about 2**t
    numerator = accept_probability(system).numerator
    # evolve steps every block, where accept_probability steps only the two-sided cone
    stepped = evolve(system, system.t_bound).entries[system.accept] ** 2
    for p in PRIMES:
        assert accept_numerator_mod(system, p) == numerator % p == stepped % p


@settings(max_examples=60, deadline=None)
@given(system=banded_pb_systems())
def test_banded_runs_match_dict_scatter_loop(system):
    _assert_runs_match_scatter(system)


ROTATE_BLOCK = (3, -4, 4, 3)


@pytest.mark.parametrize(
    "system,numerator",
    [
        (_banded_system([ROTATE_BLOCK] * 4, 1, 2, 5, 0), 0),  # t = 0, accept elsewhere
        (_banded_system([ROTATE_BLOCK] * 4, 3, 2, 2, 0), 1),  # t = 0, accept is start
        (rotation_system(BLOCK_REFLECT, 0, 0, 2), 25**2),  # start == accept: 3*3 + 4*4 home
        (_banded_system([ROTATE_BLOCK] * 8, 1, 0, 0, 16), None),  # start == accept, wrapped
        (_banded_system([ROTATE_BLOCK] * 8, 1, 0, 9, 1), 0),  # accept out of reach at t
        (make_system(5, [((c + 2) % 5, c, 5) for c in range(5)], 0, 2, 2), 0),  # reached at t = 1
        (make_system(5, [((c + 2) % 5, c, 5 - 10 * (c % 2)) for c in range(5)], 0, 1, 8), 25**8),
        (IDENTITY_SELF, 5**6),  # n = 1
        (make_system(1, [(0, 0, -5)], 0, 0, 5), 5**10),  # n = 1, sign flip each step
    ],
    ids=[
        "t0_elsewhere",
        "t0_home",
        "start_is_accept",
        "start_is_accept_banded",
        "unreachable",
        "reached_at_another_step",
        "singles_only_permutation",
        "n1",
        "n1_negative",
    ],
)
def test_cone_edge_cases_match_dict_scatter_loop(system, numerator):
    prob = _assert_runs_match_scatter(system)
    if numerator is not None:
        assert prob.numerator == numerator


def test_accept_probability_steps_only_the_two_sided_cone(monkeypatch):
    """Step k hands 2*min(k, t-1-k) + 1 blocks on a shift-3 band: the work
    grows as t**2 / 2 and does not depend on n once the cone fits in it."""
    rng = random.Random(7)
    pair_blocks = [block for block in BLOCKS if all(block)]
    n, t = 2048, 200
    blocks = [rng.choice(pair_blocks) for _ in range(n // 2)]
    start = accept = rng.randrange(n)
    columns = _banded_system(blocks, 3, start, start, t).columns
    for _ in range(t):
        accept = rng.choice([r for r, _ in columns[accept]])
    system = _banded_system(blocks, 3, start, accept, t)
    handed = []
    module = importlib.import_module("gapsim.evolve")  # the package re-exports a function
    kernel = module.trajectory

    def counted(system, t, blocks_at, *one):
        def counting(step):
            pairs, singles = blocks_at(step)
            handed.append(len(pairs) + len(singles))
            return pairs, singles

        return kernel(system, t, counting, *one)

    monkeypatch.setattr(module, "trajectory", counted)
    accept_probability(system)
    assert handed == [2 * min(k, t - 1 - k) + 1 for k in range(t)]
    assert sum(handed) == 20_000  # t**2 / 2; a dense run hands (n/2)*t = 204,800 blocks


def test_float_check_scales_only_the_blocks_of_its_two_walks(monkeypatch):
    rng = random.Random(5)
    pair_blocks = [block for block in BLOCKS if all(block)]
    system = _banded_system([rng.choice(pair_blocks) for _ in range(1024)], 3, 0, 7, 25)
    module = importlib.import_module("gapsim.evolve")
    scaler = module._scaled
    handed = []

    def kept(blocks):
        handed.append(blocks)
        return scaler(blocks)

    monkeypatch.setattr(module, "_scaled", kept)
    float_check(system)
    (ahead, _), (behind, _) = system._cone_order
    assert handed == [ahead, behind]
    scaled = sum(len(pairs) + len(singles) for pairs, singles in handed)
    assert scaled < len(system.blocks[0]) + len(system.blocks[1])


def test_cone_walks_stop_once_a_layer_takes_no_block():
    # a 4-cycle of singles and a pair block off it, run for 10**6 steps
    cycle = [((c + 1) % 4, c, 5) for c in range(4)]
    system = make_system(6, cycle + [(4, 4, 3), (4, 5, 4), (5, 4, 4), (5, 5, -3)], 0, 2, 10**6)
    (ahead, ahead_counts), (behind, behind_counts) = system._cone_order
    assert ahead == ((), ((0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)))
    assert ahead_counts == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert behind == ((), ((1, 2, 5), (0, 1, 5), (3, 0, 5), (2, 3, 5)))
    assert behind_counts == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_only_an_accept_run_computes_the_cone_order(monkeypatch, capsys):
    def refused(_system):
        raise AssertionError("cone order computed")

    monkeypatch.setattr(UnitarySystem, "_cone_order", property(refused))
    corpus_dir = Path(__file__).resolve().parents[1] / "corpus"
    machine = corpus_dir / "machines" / "blocks_wide_t10.json"
    system = load_system(str(machine))
    build_system(system.to_file_dict())
    make_system(system.n_configs, system.entries, system.start, system.accept, system.t_bound)
    system_tree(system)
    evolve(system, system.t_bound)  # steps every block, with no cone
    assert main(["gap-eval", str(corpus_dir / "trees" / "reflect_t1_compiled.json")]) == 0
    capsys.readouterr()
    with pytest.raises(AssertionError, match="cone order computed"):
        accept_probability(system)
    with pytest.raises(AssertionError, match="cone order computed"):
        float_check(system)


def _second_column_phase_system():
    """Start on the higher column of one 2x2 block, phase-query the higher one of the next."""
    d = Draft()
    s, sp = d.cfg("s"), d.cfg("s_p")
    c1, c2 = d.cfg("c1"), d.cfg("c2")
    acc, w = d.cfg("acc"), d.cfg("w")
    d.block(s, sp, c1, c2)
    d.block(c1, c2, acc, w, BLOCK_ROTATE)
    d.cond_phase(c2, "01", 1)
    return d.query_system(sp, acc, 2, 3)


ORACLE_MACHINES = (
    [
        ("four_way_phase", four_way_phase_system()),
        ("sequential_query", sequential_query_system()),
        ("or_of_two", or_of_two_system()),
        ("double_phase", double_phase_system("0", "1")),
        ("second_column_phase", _second_column_phase_system()),
    ]
    + [(f"flip_{name}", system) for name, system, _ones in flip_stability_corpus()]
    + [(f"decider_{name}", system) for name, system in decider_corpus()]
)


def _scatter_outcome(system, bits):
    """Sparse vectors of the run under bits, and its (probability, numerators, 25**T)."""
    base = system.system
    base_columns = _column_dict(base.entries)

    def columns_at(step):
        slots = system.query_slots.get(step, {})
        patch = {c: list(system.alt_columns[c]) for c, y in slots.items() if bits[y]}
        return {**base_columns, **patch}

    want = _scatter_run(columns_at, base.start, base.t_bound, 1)
    last = max(system.query_slots, default=0)
    numerators = {}
    for step, slots in system.query_slots.items():
        for config, y in slots.items():
            if want[step].get(config):
                lift = 25 ** (last - step)
                numerators[y] = numerators.get(y, 0) + want[step][config] ** 2 * lift
    prob = ExactProbability(want[-1].get(base.accept, 0) ** 2, 2 * base.t_bound)
    return want, (prob, numerators, 25**last)


@pytest.mark.parametrize(
    "system", [m for _, m in ORACLE_MACHINES], ids=[name for name, _ in ORACLE_MACHINES]
)
def test_oracle_runs_match_dict_scatter_loop(system):
    base, n = system.system, system.system.n_configs
    names = sorted({y for slots in system.query_slots.values() for y in slots.values()})
    fresh = OracleQuerySystem(base, system.query_slots, system.alt_columns, system.universe_length)
    unread = next(y for y in strings_up_to(system.universe_length) if y not in names)
    wants = []
    for values in product((0, 1), repeat=len(names)):
        bits = dict(zip(names, values))
        want, outcome = _scatter_outcome(system, bits)
        key = _key(system, bits.__getitem__)
        vectors = trajectory(base, base.t_bound, lambda k: system._blocks_at(k, key))
        assert list(vectors) == [_dense(v, n, 0) for v in want]
        assert _run(system, key) == outcome
        wants.append((bits, outcome))
    for _pass in ("fresh", "full"):
        for bits, outcome in wants:
            assert _outcome(fresh, _key(fresh, bits.__getitem__)) == outcome
            toggled = {**bits, unread: 1 - bits.get(unread, 0)}  # a string no run reads
            assert _outcome(fresh, _key(fresh, toggled.__getitem__)) == outcome
    assert len(fresh._outcomes) == len(wants)


def _two_step_phase_system(wiring):
    """Configuration a phase-queried twice: on "0" at step 0 and on "1" at step 1."""
    d = Draft()
    a, b = d.cfg("a"), d.cfg("b")
    if wiring == "routes":
        d.route(a, a)
        d.route(b, b, -1)
    else:
        d.block(a, b, a, b, BLOCK_REFLECT)
    d.cond_phase(a, "0", 0)
    d.cond_phase(a, "1", 1)
    return d.query_system(a, a, 2, 1)


@pytest.mark.parametrize("wiring", ["routes", "block"])
def test_phase_queries_at_two_steps_of_one_configuration(wiring):
    system = _two_step_phase_system(wiring)
    base = system.system
    for values in product((0, 1), repeat=2):
        bits = {"0": values[0], "1": values[1]}
        want, outcome = _scatter_outcome(system, bits)
        key = _key(system, bits.__getitem__)
        vectors = trajectory(base, base.t_bound, lambda k: system._blocks_at(k, key))
        assert list(vectors) == [_dense(v, base.n_configs, 0) for v in want]
        assert _outcome(system, key) == outcome


def test_second_phase_query_at_one_step_is_refused():
    d = Draft()
    a = d.cfg("a")
    d.route(a, a)
    d.cond_phase(a, "0", 0)
    with pytest.raises(StructuralError, match="already queries '0' at step 0"):
        d.cond_phase(a, "1", 0)


@settings(max_examples=60, deadline=None)
@given(drawn=draft_query_systems())
def test_random_oracle_machines_match_dict_scatter_loop(drawn):
    system, ones = drawn
    base, length = system.system, system.universe_length
    names = sorted(system.queried_strings())
    for values in product((0, 1), repeat=len(names)):
        bits = dict(zip(names, values))
        assert _outcome(system, _key(system, bits.__getitem__)) == _scatter_outcome(system, bits)[1]
    params = SensitivityParams(Fraction(1, 7), system.p(0))
    report = verify_flip_stability(system, OracleAssignment(length, ones), "", params)
    assert [row.string for row in report.rows] == list(strings_up_to(length))
    for row in report.rows:
        fresh = OracleQuerySystem(base, system.query_slots, system.alt_columns, length)
        flipped = acceptance_prob_rel(fresh, OracleAssignment(length, ones ^ {row.string}))
        unflipped = acceptance_prob_rel(fresh, OracleAssignment(length, ones))
        assert row.deviation == abs(flipped.as_fraction() - unflipped.as_fraction())
    # the worst row is picked by table numerators; plain Fractions agree
    for epsilon in (Fraction(1, 7), Fraction(1, 10)):
        params = SensitivityParams(epsilon, system.p(0))
        report = verify_flip_stability(system, OracleAssignment(length, ones), "", params)
        outside = [r.deviation for r in report.rows if r.string not in report.sensitive]
        assert report.max_outside_deviation == max(outside, default=0)
        assert report.ok == (max(outside, default=0) <= epsilon)
