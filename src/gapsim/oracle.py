"""Oracle-dependent systems: query magnitudes, flip stability, and a frugal decider.

Systems here consult a finite 0/1 assignment: selected configurations carry
an alternative transition column used at the steps where they query a
string whose bit is 1.  Tower conditions check their lengths against
`tower`, the one tower function.  Everything is verified exhaustively at
desk scale with exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Collection, Iterator, Mapping

from .errors import (
    CategoricalityError,
    DomainError,
    GapsimError,
    ModelError,
    OracleError,
    ResourceError,
    StructuralError,
)
from .evolve import ExactProbability, trajectory
from .model import Blocks, UnitarySystem, checked_blocks
from .strings import strings_of_length, strings_up_to

_TOWER_EXPONENT_BUDGET = 1 << 20
MAX_MIXED_STRINGS = 12  # exhaustive checks visit 2**12 bit assignments at most
_SHORT_PROBE_BUDGET = 8  # lengths with at most this many strings are read in full


def tower(n: int) -> int:
    """tower(0) = 2 and tower(n+1) = 2**tower(n), exactly.

    Refuses once the exponent itself no longer fits the big-integer budget.
    """
    if n < 0:
        raise StructuralError("tower is defined on nonnegative integers")
    value = 2
    for _ in range(n):
        if value > _TOWER_EXPONENT_BUDGET:
            raise ResourceError(
                f"tower({n}) needs an exponent of 2**{value.bit_length() - 1}, above "
                f"{_TOWER_EXPONENT_BUDGET} (raise oracle._TOWER_EXPONENT_BUDGET)"
            )
        value = 1 << value
    return value


def _bit_assignments(where: str, names: list[str]) -> Iterator[dict[str, int]]:
    """Every 0/1 assignment to the named strings, refused above the cap."""
    if len(names) > MAX_MIXED_STRINGS:
        raise ResourceError(
            f"{where} conditions on {len(names)} strings, above the cap of "
            f"{MAX_MIXED_STRINGS} (raise oracle.MAX_MIXED_STRINGS)"
        )
    for mask in range(1 << len(names)):
        yield {y: (mask >> i) & 1 for i, y in enumerate(names)}


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

    def flipped(self, y: str) -> "OracleAssignment":
        if len(y) > self.universe_length:
            raise OracleError(f"{y!r} outside the assignment's universe")
        ones = self.ones ^ {y}
        return OracleAssignment(self.universe_length, frozenset(ones))


@dataclass(frozen=True)
class TowerCondition:
    """Partial assignment with one string set at each acceptable length.

    The domain is closed by length; acceptable lengths must be tower
    values, checked against `tower` up to the first value past the largest
    length, so a length whose successor is over tower's budget raises its
    ResourceError; every length-covered string outside `ones` is 0.
    """

    acceptable_lengths: frozenset[int]
    domain_lengths: frozenset[int]
    ones: frozenset[str]

    def __post_init__(self) -> None:
        top = max(self.acceptable_lengths, default=2)
        towers = itertools.takewhile(lambda v: v <= top, map(tower, itertools.count()))
        bad = self.acceptable_lengths - set(towers)
        if bad:
            raise ModelError(f"lengths {sorted(bad)} are not tower values")
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
    """Exact perturbation bound epsilon and the derived set-size bound."""

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


@dataclass(frozen=True, eq=False)
class OracleQuerySystem:
    """One oracle machine: a base system plus conditional columns at query steps.

    At step k each configuration c in query_slots[k] applies alt_columns[c]
    instead of its base column when the bit of query_slots[k][c] is 1.
    Every input runs the same machine for system.t_bound steps, and every
    query lies within the strings of length at most universe_length.  All
    checks run once, here: slot steps and configurations, alternative
    columns and query lengths; then model.checked_blocks checks each query
    step's matrix under every bit assignment.  The same pass caches each
    step's blocks for the runs (see _blocks_at).  The bounded-error
    promise is checked lazily, at most once per object.
    """

    system: UnitarySystem
    query_slots: Mapping[int, Mapping[int, str]]
    alt_columns: Mapping[int, tuple[tuple[int, int], ...]]
    universe_length: int
    _step_blocks: list = field(init=False, repr=False)  # set by __post_init__

    def __post_init__(self) -> None:
        for step, slots in self.query_slots.items():
            if not 0 <= step < self.system.t_bound:
                raise StructuralError(f"query slot at step {step} out of range")
            for config, y in slots.items():
                if not 0 <= config < self.system.n_configs:
                    raise StructuralError(f"config {config} out of range")
                if config not in self.alt_columns:
                    raise StructuralError(
                        f"config {config} queries but has no alternative column"
                    )
                if len(y) > self.universe_length:
                    raise StructuralError(f"query {y!r} outside the universe")
        object.__setattr__(self, "_step_blocks", self._checked_step_blocks())

    def p(self, n: int) -> int:
        """Running time on inputs of length n: t_bound for every n."""
        return self.system.t_bound

    def instance(self, x: str) -> "OracleQuerySystem":
        """The machine run on input x, which is this machine for every x."""
        return self

    def queried_strings(self) -> frozenset[str]:
        return frozenset(
            y for slots in self.query_slots.values() for y in slots.values()
        )

    @cached_property
    def categorical_witness(self) -> tuple[Fraction, dict[str, int]] | None:
        """(probability, bits) of the first queried-bit assignment whose run
        leaves the promise interval, or None; computed once, on first use.

        Every input runs this machine, so the answer holds for all inputs.
        """
        for bits in _bit_assignments("the machine", sorted(self.queried_strings())):
            prob = _run(self, lambda y: bits[y])[0]
            if _verdict(prob) is None:
                return prob.as_fraction(), bits
        return None

    def _blocks_at(self, step: int, bit_of: Callable[[str], int]) -> Blocks:
        """Step blocks under the given bits, read from the cache.

        A query step reads the bit of every slot, in slot order, so an
        assignment that does not cover a queried string raises here.
        """
        shared, reads, patterns = self._step_blocks[step]
        if not reads:
            return shared
        mask = 0
        for y, bit in reads:
            if bit_of(y):
                mask |= bit
        pairs, singles = patterns[mask]
        return shared[0] + pairs, shared[1] + singles

    def _checked_step_blocks(self) -> list[tuple[Blocks, tuple, list[Blocks]]]:
        """Per step: (shared blocks, slot reads, blocks per bit pattern).

        Each query step is decomposed under every bit pattern of its
        strings by model.checked_blocks, which is its matrix check.  Only
        blocks with a column in the forward cone (the configurations some
        assignment can reach by that step) are kept.  At a query step the
        blocks on no slot configuration are the base system's under every
        pattern, so they are shared, and each pattern keeps only its blocks
        on slot configurations.  Past the last query step each entry is a
        function of the cone alone, so once the cone repeats, every later
        step shares that step's entry.
        """
        base = self.system
        n, columns = base.n_configs, base.columns
        last_query = max(self.query_slots, default=-1)
        cone = {base.start}
        cache = []
        for step in range(base.t_bound):
            slots = self.query_slots.get(step, {})
            names = sorted(set(slots.values()))
            patterns = []
            for bits in _bit_assignments(f"step {step}", names) if slots else ():
                patched = list(columns)
                for config, y in slots.items():
                    if bits[y]:
                        patched[config] = self.alt_columns[config]
                entries = [(r, c, w) for c, col in enumerate(patched) for r, w in col]
                try:
                    blocks = checked_blocks(n, entries)
                except GapsimError as exc:
                    raise type(exc)(f"step {step} with bits {bits}: {exc}") from None
                on_slots = _in_cone(blocks, cone, lambda cs: not slots.keys().isdisjoint(cs))
                patterns.append(on_slots)
            shared = _in_cone(base.blocks, cone, slots.keys().isdisjoint)
            reads = tuple((y, 1 << names.index(y)) for y in slots.values())
            cache.append((shared, reads, patterns))
            following = {
                r
                for c in cone
                for col in (columns[c], self.alt_columns[c] if c in slots else ())
                for r, _ in col
            }
            if step > last_query and following == cone:
                cache += [cache[-1]] * (base.t_bound - 1 - step)
                break
            cone = following
        return cache


def _in_cone(blocks: Blocks, cone: Collection[int], keep: Callable[[tuple], bool]) -> Blocks:
    """The blocks with a column in the cone whose columns pass keep."""
    pairs, singles = blocks
    return (
        tuple(b for b in pairs if (b[0] in cone or b[1] in cone) and keep(b[:2])),
        tuple(b for b in singles if b[0] in cone and keep(b[:1])),
    )


def _run(
    system: OracleQuerySystem, bit_of: Callable[[str], int]
) -> tuple[ExactProbability, list[list]]:
    """One run under the given bits: acceptance probability and step vectors.

    The vectors are the scaled amplitudes at steps 0..t, the kernel's own
    lists (no copies).  Every slot's bit is read at its step, so an
    assignment that does not cover a queried string raises OracleError.
    """
    base = system.system
    vectors = list(trajectory(base, base.t_bound, lambda k: system._blocks_at(k, bit_of)))
    amp = vectors[-1][base.accept]
    return ExactProbability(amp * amp, 2 * base.t_bound), vectors


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


def _magnitudes(system: OracleQuerySystem, vectors: list[list]) -> tuple[dict[str, int], int]:
    """Cumulative squared amplitude each string is queried with in one run.

    Returned as integer numerators over one common denominator, 25**T with
    T the last query step: the weight of a slot at step s is its squared
    scaled amplitude times 25**(T - s).
    """
    last = max(system.query_slots, default=0)
    numerators: dict[str, int] = {}
    for step, slots in system.query_slots.items():
        amps = vectors[step]
        lift = 25 ** (last - step)
        for config, y in slots.items():
            amp = amps[config]
            if amp:
                numerators[y] = numerators.get(y, 0) + amp * amp * lift
    return numerators, 25**last


def _sensitive(
    numerators: Mapping[str, int], denominator: int, params: SensitivityParams
) -> frozenset[str]:
    """Strings above the magnitude threshold, refused past the size bound.

    A magnitude numerator / denominator is compared with the threshold by
    cross-multiplying.
    """
    threshold = params.magnitude_threshold
    bar = threshold.numerator * denominator
    result = frozenset(
        y for y, num in numerators.items() if num * threshold.denominator > bar
    )
    if len(result) > params.bound:
        raise ModelError(
            f"sensitive set of size {len(result)} exceeds the bound {params.bound}"
        )
    return result


def acceptance_prob_rel(system: OracleQuerySystem, oracle: OracleAssignment) -> ExactProbability:
    """Exact acceptance probability of the oracle-instantiated run."""
    return _run(system, oracle.value)[0]


def query_magnitudes(system: OracleQuerySystem, oracle: OracleAssignment) -> dict[str, Fraction]:
    """Cumulative squared amplitude each string is queried with across the run."""
    numerators, denominator = _magnitudes(system, _run(system, oracle.value)[1])
    return {y: Fraction(num, denominator) for y, num in numerators.items()}


@dataclass(frozen=True)
class FlipRow:
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
    """Exhaustive single-string flips over the whole universe, exact comparisons."""
    prob, vectors = _run(system, oracle.value)
    base = prob.as_fraction()
    sensitive = _sensitive(*_magnitudes(system, vectors), params)
    rows = []
    worst = Fraction(0)
    for y in strings_up_to(oracle.universe_length):
        deviation = abs(_run(system, oracle.flipped(y).value)[0].as_fraction() - base)
        if y not in sensitive:
            worst = max(worst, deviation)
        rows.append(FlipRow(y, deviation))
    ok = worst <= params.epsilon and len(sensitive) <= params.bound
    return FlipReport(
        rows=tuple(rows),
        sensitive=sensitive,
        size_bound=params.bound,
        max_outside_deviation=worst,
        ok=ok,
    )


def categorical_check(system: OracleQuerySystem, x: str) -> None:
    """Exhaustively confirm the promise holds for every assignment of queried bits.

    Raises CategoricalityError with a witness assignment otherwise.  Only
    the queried strings matter: the run never reads any other bit.  The
    runs happen once per machine object (its categorical_witness); later
    calls, for any x, only read the result.
    """
    if system.categorical_witness is not None:
        prob, bits = system.categorical_witness
        raise CategoricalityError(
            f"probability {prob} on input {x!r} under bits {bits}",
            witness=frozenset(y for y, b in bits.items() if b),
        )


@dataclass(frozen=True)
class DeciderResult:
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

    Short acceptable lengths are read exhaustively.  For the one length too
    long to enumerate, an in-process helper computes the sensitive set of
    the run that assumes the length is empty; only those strings are
    probed.  Helper work is charged zero probes, mirroring free access to
    the powering half of the oracle.
    """
    if check_categorical:
        categorical_check(system, x)
    lengths = sorted(condition.acceptable_lengths & condition.domain_lengths)
    long_lengths = [n for n in lengths if (1 << n) > _SHORT_PROBE_BUDGET]
    if len(long_lengths) > 1:
        raise ModelError(
            f"lengths {long_lengths} all exceed the probe budget; tower spacing "
            "admits at most one"
        )
    short_lengths = [n for n in lengths if (1 << n) <= _SHORT_PROBE_BUDGET]

    query_log: list[str] = []
    known_ones: set[str] = set()
    for n in short_lengths:
        for y in strings_of_length(n):
            query_log.append(y)
            if condition.value(y) == 1:
                known_ones.add(y)

    assumed = OracleAssignment(system.universe_length, frozenset(known_ones))
    decision, vectors = _run(system, assumed.value)
    sensitive: frozenset[str] = frozenset()
    found: str | None = None

    if long_lengths:
        long_length = long_lengths[0]
        sensitive = frozenset(
            y
            for y in _sensitive(*_magnitudes(system, vectors), params)
            if len(y) == long_length
        )
        for y in sorted(sensitive):
            query_log.append(y)
            if condition.value(y) == 1:
                found = y
        if found is not None:
            full = OracleAssignment(
                system.universe_length, frozenset(known_ones | {found})
            )
            decision = _run(system, full.value)[0]

    accept = _verdict(decision)
    if accept is None:
        prob = decision.as_fraction()
        raise CategoricalityError(
            f"simulation left the promise interval: {prob}", witness=prob
        )
    total_short = sum(1 << n for n in short_lengths)
    return DeciderResult(
        accept=accept,
        query_log=tuple(query_log),
        sensitive=sensitive,
        found_long_string=found,
        probe_budget=params.bound + total_short,
    )
