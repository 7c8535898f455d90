"""Exact amplitude evolution and acceptance probabilities.

Amplitudes after k steps are integers scaled by 5**k, so every quantity here
is computed over big integers with no rounding anywhere.  The only floating
point in the package lives in float_check, which exists to cross-validate
the exact pipeline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator

from .errors import BoundsError, ParseError, ResourceError, StructuralError
from .model import Blocks, UnitarySystem

DEFAULT_MAX_PATHS = 1 << 20
_MAX_PATHS_ENV = "GAPSIM_MAX_PATHS"


@dataclass(frozen=True)
class AmplitudeVector:
    """Integer amplitude vector after t steps; the amplitude of C_i is entries[i] / 5**t."""

    entries: tuple[int, ...]


@dataclass(frozen=True)
class ExactProbability:
    """Acceptance probability numerator / 5**log5_denominator, kept unreduced;
    its Fraction is built once, on first use, and as_fraction returns it."""

    numerator: int
    log5_denominator: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerator <= 5**self.log5_denominator:
            raise StructuralError("probability outside [0, 1]")

    @cached_property
    def _fraction(self) -> Fraction:
        return Fraction(self.numerator, 5**self.log5_denominator)

    def as_fraction(self) -> Fraction:
        return self._fraction

    def is_zero(self) -> bool:
        return self.numerator == 0

    def is_one(self) -> bool:
        return self.numerator == 5**self.log5_denominator


def trajectory(
    system: UnitarySystem,
    t: int,
    blocks_at: Callable[[int], Blocks],
    one=1,
) -> Iterator[list]:
    """Amplitude vectors at steps 0..t, starting from `one` at the start config.

    The single step loop of the package.  blocks_at(k) gives step k's
    (pairs, singles) in the form of model.column_blocks: each pair maps its
    two inputs x, y to a*x + b*y on r1 and c*x + d*y on r2, each single
    maps x to w*x on its row, and a block whose inputs are all zero is
    skipped.  Rows no block writes stay zero, so a block may be left out
    when its inputs are zero on every run, or when no entry the caller
    reads depends on its outputs, at this step or through later ones.  A
    row is never summed across blocks: each kept row is the same at most
    two products of the same inputs, added in the same order, so neither
    leaving blocks out nor their order can change a float result, and the
    float witness stays bit for bit the same.  Weights and `one` are scaled
    ints, or floats for the rounding witness.  Each yielded list is new and
    never modified.
    """
    zero = one * 0
    current = [zero] * system.n_configs
    current[system.start] = one
    yield current
    for step in range(t):
        pairs, singles = blocks_at(step)
        nxt = [zero] * system.n_configs
        for c1, c2, r1, r2, a, b, c, d in pairs:
            x = current[c1]
            y = current[c2]
            if x or y:
                nxt[r1] = a * x + b * y
                nxt[r2] = c * x + d * y
        for c, r, w in singles:
            x = current[c]
            if x:
                nxt[r] = w * x
        current = nxt
        yield current


def evolve(system: UnitarySystem, t: int) -> AmplitudeVector:
    """Apply the scaled transition matrix t times to the start vector.

    Every step takes all of system.blocks; trajectory skips the blocks
    whose inputs are zero, so every entry is exact.
    """
    if t < 0 or t > system.t_bound:
        raise BoundsError(f"t={t} outside [0, {system.t_bound}]")
    for current in trajectory(system, t, lambda _step: system.blocks):
        pass
    return AmplitudeVector(tuple(current))


def _accept_run(system: UnitarySystem, convert: Callable[[Blocks], Blocks], one):
    """The full run's accept entry, stepping only the two-sided cone.

    Step k takes the blocks with a column within k steps of start, or,
    once they are fewer, the blocks whose rows reach accept within
    t_bound - 1 - k steps.  Either set holds every block on a path from
    start to accept at step k, which is all the accept entry reads.
    convert maps the blocks of each walk to the weights of the run.
    """
    (ahead, ahead_counts), (behind, behind_counts) = system._cone_order
    forward, backward = convert(ahead), convert(behind)
    last = system.t_bound - 1

    def blocks_at(step: int) -> Blocks:
        p, s = ahead_counts[min(step, len(ahead_counts) - 1)]
        q, r = behind_counts[min(last - step, len(behind_counts) - 1)]
        if q + r < p + s:
            return backward[0][:q], backward[1][:r]
        return forward[0][:p], forward[1][:s]

    for current in trajectory(system, system.t_bound, blocks_at, one):
        pass
    return current[system.accept]


def accept_probability(system: UnitarySystem) -> ExactProbability:
    """Squared accept amplitude after the full run, over 5**(2 t_bound)."""
    amp = _accept_run(system, lambda blocks: blocks, 1)
    return ExactProbability(amp * amp, 2 * system.t_bound)


def path_cap() -> int:
    """GAPSIM_MAX_PATHS, or DEFAULT_MAX_PATHS when unset; ParseError unless a positive int."""
    text = os.environ.get(_MAX_PATHS_ENV)
    try:
        cap = DEFAULT_MAX_PATHS if text is None else int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParseError(f"{_MAX_PATHS_ENV} must be a positive integer, got {text!r}")
    return cap


def path_sum(system: UnitarySystem, t: int) -> AmplitudeVector:
    """Amplitudes by explicit enumeration of nonzero-weight length-t paths.

    Independent of evolve: sums the product of edge weights over every path
    from the start configuration.  Raises ResourceError once more complete
    paths are seen than path_cap allows.
    """
    if t < 0 or t > system.t_bound:
        raise BoundsError(f"t={t} outside [0, {system.t_bound}]")
    cap = path_cap()
    totals = [0] * system.n_configs
    paths = 0
    stack: list[tuple[int, int, int]] = [(system.start, 0, 1)]
    while stack:
        config, depth, weight = stack.pop()
        if depth == t:
            paths += 1
            if paths > cap:
                raise ResourceError("paths", paths, cap, _MAX_PATHS_ENV)
            totals[config] += weight
            continue
        for r, w in system.columns[config]:
            stack.append((r, depth + 1, weight * w))
    return AmplitudeVector(tuple(totals))


def float_check(system: UnitarySystem) -> float:
    """Double-precision squared accept amplitude with U = V / 5.

    Agrees with accept_probability within 1e-9 for t <= 20 and up to 4096
    configurations; used as a rounding-error witness, never as truth.
    """
    return _accept_run(system, _scaled, 1.0) ** 2


def _scaled(blocks: Blocks) -> Blocks:
    """A walk's blocks with their weights w / 5.0."""
    pairs, singles = blocks
    return (
        tuple([
            (c1, c2, r1, r2, a / 5.0, b / 5.0, c / 5.0, d / 5.0)
            for c1, c2, r1, r2, a, b, c, d in pairs
        ]),
        tuple([(c, r, w / 5.0) for c, r, w in singles]),
    )
