"""Oracle-dependent systems: query magnitudes, flip stability, and a frugal decider.

Systems here consult a finite 0/1 assignment through the query gates of
Bennett, Bernstein, Brassard and Vazirani and of Beals et al.: a query step
is the base step after one sign flip or one swap per queried string whose
bit is 1.  Tower conditions take exactly the tower values 2, 4, 16, 65536,
2**65536, ... as lengths.  Everything is verified exhaustively at desk
scale with exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

from .errors import (
    CategoricalityError,
    DomainError,
    ModelError,
    OracleError,
    ResourceError,
    StructuralError,
)
from .evolve import ExactProbability, trajectory
from .model import Blocks, UnitarySystem
from .strings import strings_of_length, strings_up_to

MAX_MIXED_STRINGS = 12  # the categorical check and each table hold 2**12 assignments at most
_SHORT_PROBE_BUDGET = 8  # lengths with at most this many strings are read in full


@dataclass(frozen=True)
class OracleAssignment:
    """Total 0/1 assignment on all strings up to a maximum length."""

    universe_length: int
    ones: frozenset[str]

    def __post_init__(self) -> None:
        for y in self.ones:
            if len(y) > self.universe_length:
                raise OracleError(f"{y!r} is longer than the declared universe")

    def value(self, y: str) -> int:
        if len(y) > self.universe_length:
            raise OracleError(f"{y!r} outside the assignment's universe")
        return 1 if y in self.ones else 0


@dataclass(frozen=True)
class TowerCondition:
    """Partial assignment with one string set at each acceptable length.

    The domain is closed by length; acceptable lengths must be tower values
    (2 and 2**v for each tower value v, the spacing of Fortnow and Rogers'
    generic oracles), checked in place by logarithms, exact for any int.
    Every length-covered string outside `ones` is 0.  The decider's probe
    plan is computed once per object (see _probe_plan).
    """

    acceptable_lengths: frozenset[int]
    domain_lengths: frozenset[int]
    ones: frozenset[str]

    def __post_init__(self) -> None:
        bad = []
        for length in sorted(self.acceptable_lengths):
            n = length
            while n > 2 and n & (n - 1) == 0:
                n = n.bit_length() - 1
            if n != 2:
                bad.append(str(Decimal(length)))  # every digit, past the int-to-str limit
        if bad:
            raise ModelError(f"lengths [{', '.join(bad)}] are not tower values")
        per_length: dict[int, int] = {}
        for y in self.ones:
            if len(y) not in self.domain_lengths:
                raise ModelError(f"{y!r} lies outside the condition's domain")
            if len(y) not in self.acceptable_lengths:
                raise ModelError(f"{y!r} set at a non-acceptable length")
            per_length[len(y)] = per_length.get(len(y), 0) + 1
        for length in self.acceptable_lengths & self.domain_lengths:
            count = per_length.get(length, 0)
            if count != 1:
                raise ModelError(
                    f"length {length} has {count} strings set, expected exactly one"
                )

    def value(self, y: str) -> int:
        if len(y) not in self.domain_lengths:
            raise DomainError(f"condition undefined on length {len(y)}")
        return 1 if y in self.ones else 0

    @cached_property
    def _probe_plan(self) -> tuple[tuple[int, ...], tuple[str, ...], frozenset[str]]:
        """(long lengths, short strings in probe order, the short strings set).

        A length is short with at most _SHORT_PROBE_BUDGET strings.
        """
        lengths = sorted(self.acceptable_lengths & self.domain_lengths)
        long_lengths = tuple(n for n in lengths if (1 << n) > _SHORT_PROBE_BUDGET)
        shorts = tuple(
            y for n in lengths if (1 << n) <= _SHORT_PROBE_BUDGET for y in strings_of_length(n)
        )
        return long_lengths, shorts, frozenset(y for y in shorts if self.value(y) == 1)

    def to_assignment(self, universe_length: int) -> OracleAssignment:
        missing = set(range(universe_length + 1)) - self.domain_lengths
        if missing:
            raise DomainError(f"condition undefined on lengths {sorted(missing)}")
        return OracleAssignment(
            universe_length,
            frozenset(y for y in self.ones if len(y) <= universe_length),
        )


@dataclass(frozen=True)
class SensitivityParams:
    """Exact perturbation bound epsilon and the derived set-size bound.

    The bound and the magnitude threshold are computed once per object, the
    threshold also as an int (numerator, denominator) pair: a warm decision
    reads only the bound and that pair, the key of its stored sensitive sets
    (see _sensitive_sets).
    """

    epsilon: Fraction
    p_value: int

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < Fraction(1, 6):
            raise ModelError("epsilon must lie strictly between 0 and 1/6")
        if self.p_value < 1:
            raise ModelError("running-time value must be positive")

    @cached_property
    def bound(self) -> int:
        return math.ceil(4 * self.p_value**2 / self.epsilon**2)

    @cached_property
    def magnitude_threshold(self) -> Fraction:
        return self.epsilon**2 / (4 * self.p_value**2)

    @cached_property
    def _threshold(self) -> tuple[int, int]:
        return self.magnitude_threshold.as_integer_ratio()


@dataclass(frozen=True, eq=False)
class OracleQuerySystem:
    """One oracle machine: a base system plus one query gate per slot.

    At step k each configuration c in query_slots[k] applies alt_columns[c]
    instead of its base column when the bit of query_slots[k][c] is 1.
    Every input runs the same machine for system.t_bound steps, and every
    query lies within the strings of length at most universe_length.  All
    checks run once, here: slot steps and configurations, query lengths,
    and that each slot's alternative, as a sorted (row, numerator) tuple,
    is a phase (its own column negated) or a swap (the column of another
    slot at the same step on the same string, whose alternative is this
    slot's column).  A query step is then the base step after a signed
    permutation, unitary as the base step is, so no matrix is checked, and
    building costs the query steps, whatever t_bound is (see _blocks_at).
    The bounded-error promise is checked lazily, at most once per object.

    A run reads only the bits of the queried strings, packed into one int
    key (see _key), so the machine keeps a table from that key to the
    run's outcome (see _outcome), and every entry point runs each distinct
    key once, and a second table from (key, threshold, bound) to its
    sensitive sets (see _sensitive_sets).  Each is cleared before it would
    pass 2**MAX_MIXED_STRINGS entries, the categorical check's own cap, and
    the sensitive sets are cleared with the outcomes.  The two tables are
    the machine's only mutable state: two threads may both compute an
    entry, and both store the same value.
    """

    system: UnitarySystem
    query_slots: Mapping[int, Mapping[int, str]]
    alt_columns: Mapping[int, tuple[tuple[int, int], ...]]
    universe_length: int
    _position: dict = field(init=False, repr=False)  # set by __post_init__
    _step_blocks: dict = field(init=False, repr=False)  # set by __post_init__
    _outcomes: dict = field(init=False, repr=False, default_factory=dict)
    _sensitive_sets: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        base = self.system
        reads = (y for step in sorted(self.query_slots) for y in self.query_slots[step].values())
        position = {y: 1 << i for i, y in enumerate(dict.fromkeys(reads))}
        columns, step_blocks = base.columns, {}
        for step, slots in self.query_slots.items():
            if not 0 <= step < base.t_bound:
                raise StructuralError(f"query slot at step {step} out of range")
            for config, y in slots.items():
                if not 0 <= config < base.n_configs:
                    raise StructuralError(f"config {config} out of range")
                if config not in self.alt_columns:
                    raise StructuralError(
                        f"config {config} queries but has no alternative column"
                    )
                if len(y) > self.universe_length:
                    raise StructuralError(f"query {y!r} outside the universe")
            alts = {c: tuple(sorted(self.alt_columns[c])) for c in slots}
            owner = {columns[c]: c for c in slots}
            gates = []  # (key bit, block column read, configuration fed, weight sign)
            for config, y in slots.items():
                alt, own = alts[config], columns[config]
                partner = owner.get(alt)
                if alt == tuple((r, -w) for r, w in own):
                    gates.append((position[y], config, config, -1))
                elif partner != config and slots.get(partner) == y and alts[partner] == own:
                    gates.append((position[y], partner, config, 1))
                else:
                    raise StructuralError(
                        f"step {step}: config {config} reading {y!r} is neither a phase nor a swap"
                    )
            if slots:
                on_slots = _kept(base.blocks, lambda cs: not slots.keys().isdisjoint(cs))
                step_blocks[step] = (_kept(base.blocks, slots.keys().isdisjoint), on_slots, gates)
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_step_blocks", step_blocks)

    def p(self, n: int) -> int:
        """Running time on inputs of length n: t_bound for every n."""
        return self.system.t_bound

    def instance(self, x: str) -> "OracleQuerySystem":
        """The machine run on input x, which is this machine for every x."""
        return self

    def queried_strings(self) -> frozenset[str]:
        return frozenset(self._position)

    @cached_property
    def _query_steps(self) -> Counter[str]:
        """Per queried string, the number of query steps that read it (the
        k_y of the hybrid bound, see verify_flip_stability); computed once."""
        return Counter(y for slots in self.query_slots.values() for y in set(slots.values()))

    @cached_property
    def categorical_witness(self) -> tuple[Fraction, dict[str, int]] | None:
        """(probability, bits) of the first queried-bit assignment whose run
        leaves the promise interval, or None; computed once, on first use.

        Every input runs this machine, so the answer holds for all inputs.
        """
        names = sorted(self.queried_strings())
        if len(names) > MAX_MIXED_STRINGS:
            raise ResourceError(
                "strings the machine conditions on", len(names), MAX_MIXED_STRINGS,
                "oracle.MAX_MIXED_STRINGS",
            )
        for mask in range(1 << len(names)):
            bits = {y: (mask >> i) & 1 for i, y in enumerate(names)}
            prob = _outcome(self, _key(self, bits.__getitem__))[0]
            if _verdict(prob) is None:
                return prob.as_fraction(), bits
        return None

    def _blocks_at(self, step: int, key: int) -> Blocks:
        """Step blocks under the bits packed in key (see _key).

        A query step joins its blocks off the slots to its base blocks on
        them, built under key: a set swap relabels its partner's block
        input to its own configuration, and a set phase negates its
        column's weights.  Every other step runs the base system's blocks.
        """
        entry = self._step_blocks.get(step)
        if entry is None:
            return self.system.blocks
        (shared_pairs, shared_singles), (pairs, singles), gates = entry
        read = {source: (config, sign) for bit, source, config, sign in gates if key & bit}
        built = []
        for c1, c2, r1, r2, a, b, c, d in pairs:
            i1, s1 = read.get(c1, (c1, 1))
            i2, s2 = read.get(c2, (c2, 1))
            built.append((i1, i2, r1, r2, s1 * a, s2 * b, s1 * c, s2 * d))
        moved = [(i, r, s * w) for c, r, w in singles for i, s in [read.get(c, (c, 1))]]
        return shared_pairs + tuple(built), shared_singles + tuple(moved)


def _kept(blocks: Blocks, keep: Callable[[tuple], bool]) -> Blocks:
    """The blocks whose columns pass keep."""
    pairs, singles = blocks
    return tuple(b for b in pairs if keep(b[:2])), tuple(b for b in singles if keep(b[:1]))


def _key(system: OracleQuerySystem, bit_of: Callable[[str], int]) -> int:
    """The bits of the queried strings packed into an int, the table's key.

    Each string is read once, in the order a run first reads them (step
    order, then slot order), so an assignment that does not cover one
    raises here, at the first such string.
    """
    key = 0
    for y, bit in system._position.items():
        if bit_of(y):
            key |= bit
    return key


def _run(system: OracleQuerySystem, key: int) -> tuple[ExactProbability, dict[str, int], int]:
    """One run under the bits packed in key: (probability, magnitude
    numerators, denominator), the table's entry.

    The magnitude of a string is its cumulative squared amplitude over its
    query slots, an integer numerator over one common denominator 25**T,
    T the last query step: a slot at step s adds its squared scaled
    amplitude times 25**(T - s).  They are added as the run steps, so only
    the current vector is kept.
    """
    base, slots_at = system.system, system.query_slots
    last = max(slots_at, default=0)
    numerators: dict[str, int] = {}
    steps = trajectory(base, base.t_bound, lambda k: system._blocks_at(k, key))
    for step, vector in enumerate(steps):
        for config, y in slots_at.get(step, {}).items():
            amp = vector[config]
            if amp:
                numerators[y] = numerators.get(y, 0) + amp * amp * 25 ** (last - step)
    amp = vector[base.accept]
    return ExactProbability(amp * amp, 2 * base.t_bound), numerators, 25**last


def _outcome(system: OracleQuerySystem, key: int) -> tuple[ExactProbability, dict[str, int], int]:
    """The machine's table entry for key, run on a miss (see _run).

    The stored numerators are shared; callers do not modify them.
    """
    table = system._outcomes
    outcome = table.get(key)
    if outcome is None:
        outcome = _run(system, key)
        if len(table) >= 1 << MAX_MIXED_STRINGS:
            table.clear()
            system._sensitive_sets.clear()
        table[key] = outcome
    return outcome


def _verdict(prob: ExactProbability) -> bool | None:
    """True at or above 2/3, False at or below 1/3, None strictly between.

    The bounded-error promise of BQP, decided on 3 * numerator against
    5**log5_denominator.
    """
    thrice, whole = 3 * prob.numerator, 5**prob.log5_denominator
    if thrice >= 2 * whole:
        return True
    if thrice <= whole:
        return False
    return None


def _sensitive(
    numerators: Mapping[str, int], denominator: int, params: SensitivityParams
) -> frozenset[str]:
    """Strings above the magnitude threshold, refused past the size bound.

    A magnitude numerator / denominator is compared with the threshold by
    cross-multiplying.
    """
    over, under = params._threshold
    bar = over * denominator
    result = frozenset(y for y, num in numerators.items() if num * under > bar)
    if len(result) > params.bound:
        raise ModelError(
            f"sensitive set of size {len(result)} exceeds the bound {params.bound}"
        )
    return result


def _sensitive_sets(
    system: OracleQuerySystem, key: int, outcome: tuple, params: SensitivityParams
) -> tuple[frozenset[str], dict[int, tuple[tuple[str, ...], frozenset[str]]]]:
    """(sensitive set, per length its strings sorted and as a set) of the run
    of key, whose table entry is outcome, computed once per (key, threshold,
    bound) by _sensitive; a refusal past the bound is never stored.
    """
    stored, token = system._sensitive_sets, (key, params._threshold, params.bound)
    sets = stored.get(token)
    if sets is None:
        above = _sensitive(outcome[1], outcome[2], params)
        ordered = sorted(above, key=lambda y: (len(y), y))
        runs = {n: tuple(ys) for n, ys in itertools.groupby(ordered, len)}
        sets = above, {n: (ys, frozenset(ys)) for n, ys in runs.items()}
        if len(stored) >= 1 << MAX_MIXED_STRINGS:
            stored.clear()
        stored[token] = sets
    return sets


def acceptance_prob_rel(system: OracleQuerySystem, oracle: OracleAssignment) -> ExactProbability:
    """Exact acceptance probability of the oracle-instantiated run."""
    return _outcome(system, _key(system, oracle.value))[0]


def query_magnitudes(system: OracleQuerySystem, oracle: OracleAssignment) -> dict[str, Fraction]:
    """Cumulative squared amplitude each string is queried with across the run."""
    _, numerators, denominator = _outcome(system, _key(system, oracle.value))
    return {y: Fraction(num, denominator) for y, num in numerators.items()}


class FlipRow(NamedTuple):
    """One flip: a tuple of the flipped string and its exact deviation."""

    string: str
    deviation: Fraction


@dataclass(frozen=True)
class FlipReport:
    rows: tuple[FlipRow, ...]
    sensitive: frozenset[str]
    size_bound: int
    max_outside_deviation: Fraction
    ok: bool


def verify_flip_stability(
    system: OracleQuerySystem,
    oracle: OracleAssignment,
    x: str,
    params: SensitivityParams,
) -> FlipReport:
    """Exhaustive single-string flips over the whole universe, exact comparisons.

    The base assignment's bits are read once, into the table key (see
    _key); the flip of row y reads the key with y's bit toggled, and the
    flip of a string the run never reads is the base key itself.  Each
    distinct key runs once (see _outcome), so only the base and the flips
    of queried strings cost a run, and a row costs one table read, one
    Fraction subtraction and one integer comparison: an entry's probability
    builds its Fraction once (see ExactProbability), and every entry of one
    machine has the denominator 5**(2 * t_bound), so the sign of the
    integer gap between the row's numerator and the base's orders the one
    subtraction that gives the deviation, the worst row outside the
    sensitive set is the one whose gap is largest, and only its Fraction is
    compared with epsilon.  The table keeps at most 2**MAX_MIXED_STRINGS
    entries, so past that a key may run again; two threads on one machine
    may both run an entry, and both store the same value.  A sensitive set
    past params.bound raises ModelError (see _sensitive_sets), so a report
    is ok when no flip outside it deviates by more than epsilon and every
    read string y obeys the hybrid bound of Bennett, Bernstein, Brassard
    and Vazirani, |deviation| <= 4 * sqrt(k_y * m_y), with k_y the query
    steps that read y and m_y its base magnitude M_y / 25**T: checked on
    y's row, by one more integer comparison, squared, as
    D**2 * 25**T <= 16 * k_y * M_y * 25**(2 * t) for the row's gap D.
    """
    key = _key(system, oracle.value)
    outcome = _outcome(system, key)
    n0, base = outcome[0].numerator, outcome[0].as_fraction()
    sensitive = _sensitive_sets(system, key, outcome, params)[0]
    position = system._position
    hybrid = 16 * 25**outcome[0].log5_denominator  # 16 * 25**(2 * t)
    rows = []
    far, worst, within = 0, Fraction(0), True
    for y in strings_up_to(oracle.universe_length):
        bit = position.get(y, 0)
        prob = _outcome(system, key ^ bit)[0]
        gap = prob.numerator - n0
        if gap < 0:
            gap, deviation = -gap, base - prob.as_fraction()
        else:
            deviation = prob.as_fraction() - base
        if gap > far and y not in sensitive:
            far, worst = gap, deviation
        if bit and gap * gap * outcome[2] > hybrid * system._query_steps[y] * outcome[1].get(y, 0):
            within = False
        rows.append(FlipRow(y, deviation))
    return FlipReport(
        rows=tuple(rows),
        sensitive=sensitive,
        size_bound=params.bound,
        max_outside_deviation=worst,
        ok=worst <= params.epsilon and within,
    )


def categorical_check(system: OracleQuerySystem, x: str) -> None:
    """Exhaustively confirm the promise holds for every assignment of queried bits.

    Raises CategoricalityError with a witness assignment otherwise.  Only
    the queried strings matter: the run never reads any other bit.  The
    runs happen once per machine object (its categorical_witness); later
    calls, for any x, only read the result.  They fill the machine's table
    of outcomes, so a decision on a checked machine makes no run.
    """
    if system.categorical_witness is not None:
        prob, bits = system.categorical_witness
        raise CategoricalityError(
            f"probability {prob} on input {x!r} under bits {bits}",
            witness=frozenset(y for y, b in bits.items() if b),
        )


class DeciderResult(NamedTuple):
    """One decision: a tuple of its five fields, in this order."""

    accept: bool
    query_log: tuple[str, ...]
    sensitive: frozenset[str]
    found_long_string: str | None
    probe_budget: int


def rerelativized_decide(
    system: OracleQuerySystem,
    condition: TowerCondition,
    x: str,
    params: SensitivityParams,
    check_categorical: bool = True,
) -> DeciderResult:
    """Decide the machine's answer with polynomially many condition probes.

    Short acceptable lengths are read exhaustively, once per condition (its
    cached TowerCondition._probe_plan).  For the one length too long to
    enumerate, an in-process helper computes the sensitive set of the run
    that assumes the length is empty; only those strings are probed, through
    condition.value; helper work is charged zero probes, mirroring free
    access to the powering half of the oracle.  A warm decision reads only
    the plan, the table key of its short ones (each checked against the
    universe), one table entry, the sorted long probes and their set stored
    for that entry (see _sensitive_sets) and, if a probed string is set,
    one more entry.
    """
    if check_categorical:
        categorical_check(system, x)
    long_lengths, shorts, known_ones = condition._probe_plan
    if len(long_lengths) > 1:
        raise ModelError(
            f"lengths {list(long_lengths)} all exceed the probe budget; tower spacing "
            "admits at most one"
        )

    key = 0
    for y in known_ones:
        if len(y) > system.universe_length:
            raise OracleError(f"{y!r} is longer than the declared universe")
        key |= system._position.get(y, 0)
    outcome = _outcome(system, key)
    decision, probes, sensitive, found = outcome[0], (), frozenset(), None
    if long_lengths:
        by_length = _sensitive_sets(system, key, outcome, params)[1]
        probes, sensitive = by_length.get(long_lengths[0], ((), sensitive))
        for y in probes:
            if condition.value(y) == 1:
                found = y
        if found is not None:
            decision = _outcome(system, key | system._position[found])[0]

    accept = _verdict(decision)
    if accept is None:
        prob = decision.as_fraction()
        raise CategoricalityError(
            f"simulation left the promise interval: {prob}", witness=prob
        )
    return DeciderResult(accept, shorts + probes, sensitive, found, params.bound + len(shorts))
