"""Independent exact references, written apart from the code they check.

None of these call gapsim's evolution, oracle or inlining code: they read
only the raw input data (matrix entries, query slots, alternative columns)
and recompute the answer another way.
"""

from __future__ import annotations

import math
from fractions import Fraction


def accept_amplitude(entries, start: int, accept: int, t: int) -> int:
    """Scaled accept amplitude by backward (row-vector) propagation.

    Computes e_accept^T V^t e_start: the row vector starts at the accept
    configuration and each step multiplies by V from the right.
    """
    by_row: dict[int, list[tuple[int, int]]] = {}
    for r, c, w in entries:
        by_row.setdefault(r, []).append((c, w))
    row = {accept: 1}
    for _ in range(t):
        nxt: dict[int, int] = {}
        for r, amp in row.items():
            for c, w in by_row.get(r, ()):
                nxt[c] = nxt.get(c, 0) + amp * w
        row = {c: a for c, a in nxt.items() if a}
    return row.get(start, 0)


def oracle_trajectory(inst, ones) -> list[dict[int, int]]:
    """Scaled amplitudes at steps 0..t of an oracle instance under `ones`.

    At a query step a configuration whose queried string is set uses its
    alternative column; every other configuration uses its base column.
    """
    system = inst.system
    base: dict[int, list[tuple[int, int]]] = {}
    for r, c, w in system.entries:
        base.setdefault(c, []).append((r, w))
    current = {system.start: 1}
    trajectory = [current]
    for step in range(system.t_bound):
        slots = inst.query_slots.get(step, {})
        nxt: dict[int, int] = {}
        for c, amp in current.items():
            y = slots.get(c)
            column = inst.alt_columns[c] if y is not None and y in ones else base.get(c, ())
            for r, w in column:
                nxt[r] = nxt.get(r, 0) + w * amp
        current = {c: a for c, a in nxt.items() if a}
        trajectory.append(current)
    return trajectory


def oracle_probability(inst, ones) -> Fraction:
    amp = oracle_trajectory(inst, ones)[-1].get(inst.system.accept, 0)
    return Fraction(amp * amp, 25**inst.system.t_bound)


def universe(length: int) -> list[str]:
    """Every binary string of length <= `length`, shortest first."""
    out = [""]
    for n in range(1, length + 1):
        out.extend(format(k, f"0{n}b") for k in range(1 << n))
    return out


def flip_stability(inst, ones: frozenset, universe_length: int, epsilon: Fraction, p: int):
    """(sensitive set, deviations in universe order, max outside, ok) by brute force."""
    trajectory = oracle_trajectory(inst, ones)
    magnitudes: dict[str, Fraction] = {}
    for step, slots in inst.query_slots.items():
        for config, y in slots.items():
            amp = trajectory[step].get(config, 0)
            if amp:
                magnitudes[y] = magnitudes.get(y, Fraction(0)) + Fraction(amp * amp, 25**step)
    threshold = epsilon**2 / (4 * p * p)
    sensitive = frozenset(y for y, mag in magnitudes.items() if mag > threshold)
    amp = trajectory[-1].get(inst.system.accept, 0)
    base = Fraction(amp * amp, 25**inst.system.t_bound)
    deviations = tuple(
        abs(oracle_probability(inst, ones ^ {y}) - base) for y in universe(universe_length)
    )
    outside = max(
        (d for y, d in zip(universe(universe_length), deviations) if y not in sensitive),
        default=Fraction(0),
    )
    bound = math.ceil(4 * p * p / epsilon**2)
    return sensitive, deviations, outside, outside <= epsilon and len(sensitive) <= bound


def inlined_gaps(design: dict, g: int) -> tuple[int, int]:
    """(true gap, inlined gap) of a two-query design against a near-extreme table.

    The table approximator has value g - 1 on oracle members and 1 elsewhere;
    inlining a query for y weighs the yes-continuation by f(y) and the
    no-continuation by g - f(y).
    """
    oracle, x, second, outcomes = design["oracle"], design["x"], design["second"], design["outcomes"]

    def weight(y: str, answer: bool) -> int:
        f = g - 1 if y in oracle else 1
        return f if answer else g - f

    first = x in oracle
    true_gap = outcomes[(first, second[first] in oracle)]
    inlined = sum(
        weight(x, a) * weight(second[a], b) * outcomes[(a, b)]
        for a in (False, True)
        for b in (False, True)
    )
    return true_gap, inlined


def dag_counts(root) -> tuple[int, int, int]:
    """(distinct nodes, edges over distinct branches, unfolded leaves) of a tree DAG."""
    leaves: dict[int, int] = {}
    edges = 0
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in leaves:
            stack.pop()
            continue
        children = getattr(node, "children", None)
        if children is None:
            leaves[id(node)] = 1
            stack.pop()
            continue
        missing = {id(c): c for c in children if id(c) not in leaves}
        if missing:
            stack.extend(missing.values())
            continue
        edges += len(children)
        leaves[id(node)] = sum(leaves[id(c)] for c in children)
        stack.pop()
    return len(leaves), edges, leaves[id(root)]
