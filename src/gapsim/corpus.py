"""Deterministic corpus: systems, families, machines, and oracle setups.

Everything here is built from two primitives that keep the exact
orthogonality identity by construction: 2x2 integer blocks between a pair
of source configurations and a pair of target rows, and +-5 routes that
together form a permutation.  Completion assigns every leftover
configuration a route onto a leftover row, so the full matrix always
closes to V^T V = 25 I; the validators re-check this anyway.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Callable, Sequence

from .errors import DecodeError, StructuralError
from .gapp import GapMachine, tree_to_json
from .lowness import (
    LownessInstance,
    OracleGapMachine,
    machine_from_tables,
    near_extreme_instance,
)
from .model import MachineFamily, UnitarySystem, make_system
from .oracle import OracleQuerySystem, TowerCondition
from .strings import string_to_num, strings_of_length, unpair
from .trees import ACCEPT, REJECT, Branch, Node

# 2x2 integer columns with squared norm 25 and zero inner product.
BLOCK_REFLECT = ((3, 4), (4, -3))
BLOCK_ROTATE = ((3, -4), (4, 3))
BLOCK_STEEP = ((4, 3), (3, -4))
BLOCK_SWAP = ((0, 5), (5, 0))


class Draft:
    """Incremental wiring of a norm-preserving transition matrix."""

    def __init__(self) -> None:
        self._names: list[str] = []  # configuration i is named _names[i]
        self._columns: dict[int, tuple[tuple[int, int], ...]] = {}
        self._queries: dict[int, dict[int, str]] = {}
        self._swap_alts: dict[int, tuple[tuple[int, int], ...]] = {}
        self._phases: list[tuple[int, str, int]] = []

    def cfg(self, name: str) -> int:
        """A new configuration named name, numbered in call order."""
        self._names.append(name)
        return len(self._names) - 1

    def _set_column(self, c: int, column: tuple[tuple[int, int], ...]) -> None:
        if c in self._columns:
            raise StructuralError(f"column {c} wired twice")
        self._columns[c] = column

    def route(self, src: int, dst: int, sign: int = 1) -> None:
        self._set_column(src, ((dst, 5 * sign),))

    def block(self, c1: int, c2: int, r1: int, r2: int, matrix=BLOCK_REFLECT) -> None:
        (a, b), (c, d) = matrix
        self._set_column(c1, tuple((r, w) for r, w in ((r1, a), (r2, c)) if w))
        self._set_column(c2, tuple((r, w) for r, w in ((r1, b), (r2, d)) if w))

    def delay_chain(self, src: int, name: str, steps: int) -> int:
        """Route src through `steps` fresh configurations; returns the last one."""
        current = src
        for k in range(steps):
            nxt = self.cfg(f"{name}.{k}")
            self.route(current, nxt)
            current = nxt
        return current

    def cond_swap(
        self, a: int, b: int, ra: int, rb: int, query: str, step: int
    ) -> None:
        """Transposition of two routes conditioned on the bit of `query`."""
        self._set_column(a, ((ra, 5),))
        self._set_column(b, ((rb, 5),))
        self._swap_alts[a] = ((rb, 5),)
        self._swap_alts[b] = ((ra, 5),)
        self._queries.setdefault(step, {})[a] = query
        self._queries.setdefault(step, {})[b] = query

    def cond_phase(self, c: int, query: str, step: int) -> None:
        """Sign flip of configuration c's column conditioned on the bit of `query`."""
        slots = self._queries.setdefault(step, {})
        if c in slots:
            raise StructuralError(f"config {c} already queries {slots[c]!r} at step {step}")
        slots[c] = query
        self._phases.append((c, query, step))

    def _complete(self) -> tuple[int, list[tuple[int, int, int]], dict]:
        n = len(self._names)
        used_rows = {r for col in self._columns.values() for r, _ in col}
        free_cols = sorted(set(range(n)) - self._columns.keys())
        free_rows = sorted(set(range(n)) - used_rows)
        columns = dict(self._columns)
        for c, r in zip(free_cols, free_rows):
            columns[c] = ((r, 5),)
        alts = dict(self._swap_alts)
        for c, _, _ in self._phases:
            if c in self._swap_alts:
                raise StructuralError(f"config {c} cannot both swap and flip sign")
            alts[c] = tuple((r, -w) for r, w in columns[c])
        entries = [(r, c, w) for c, col in columns.items() for r, w in col]
        return n, entries, alts

    def system(self, start: int, accept: int, t: int) -> UnitarySystem:
        if self._queries:
            raise StructuralError("query slots need query_system")
        n, entries, _ = self._complete()
        return make_system(n, entries, start, accept, t)

    def query_system(
        self, start: int, accept: int, t: int, universe_length: int
    ) -> OracleQuerySystem:
        """Input-independent query system running t steps on every input."""
        n, entries, alts = self._complete()
        return OracleQuerySystem(
            system=make_system(n, entries, start, accept, t),
            query_slots={step: dict(slots) for step, slots in self._queries.items()},
            alt_columns=alts,
            universe_length=universe_length,
        )


def rotation_system(matrix, start: int, accept: int, t: int) -> UnitarySystem:
    """Single 2x2 block as a full system."""
    return block_diagonal_system([matrix], start, accept, t)


def identity_system(n: int, start: int, accept: int, t: int, signs=None) -> UnitarySystem:
    entries = [(i, i, 5 * (signs[i] if signs else 1)) for i in range(n)]
    return make_system(n, entries, start, accept, t)


def cycle_system(n: int, start: int, accept: int, t: int) -> UnitarySystem:
    entries = [((i + 1) % n, i, 5) for i in range(n)]
    return make_system(n, entries, start, accept, t)


def block_diagonal_system(
    blocks: Sequence, start: int, accept: int, t: int
) -> UnitarySystem:
    """Direct sum of 2x2 blocks (or +-1 scalars for single configurations)."""
    d = Draft()
    offset = 0
    for blk in blocks:
        if blk in (1, -1):
            c = d.cfg(str(offset))
            d.route(c, c, sign=blk)
            offset += 1
        else:
            c1, c2 = d.cfg(str(offset)), d.cfg(str(offset + 1))
            d.block(c1, c2, c1, c2, blk)
            offset += 2
    return d.system(start, accept, t)


def interference_zero_system() -> UnitarySystem:
    """Three-step system whose accept amplitude cancels to exactly zero.

    The two arms arrive with amplitudes 12/25 and 16/25 and recombine with
    weights 4 and -3; in doubles the same sum lands near -5.6e-17, which is
    what makes this the rounding witness for the exact-zero checker.
    """
    d = Draft()
    start, s2 = d.cfg("start"), d.cfg("s2")
    c1, c2 = d.cfg("c1"), d.cfg("c2")
    z1, z2 = d.cfg("z1"), d.cfg("z2")
    c3, c4 = d.cfg("c3"), d.cfg("c4")
    c5, c6 = d.cfg("c5"), d.cfg("c6")
    acc, x = d.cfg("acc"), d.cfg("x")
    y1, y2 = d.cfg("y1"), d.cfg("y2")
    d.block(start, s2, c1, c2)
    d.block(c1, z1, c3, c4)
    d.block(c2, z2, c5, c6)
    d.block(c4, c6, acc, x, ((4, -3), (3, 4)))
    d.block(c3, c5, y1, y2)
    return d.system(start, acc, 3)


def unitary_corpus() -> list[tuple[str, UnitarySystem]]:
    """At least twenty systems, up to 64 configurations and t <= 10."""
    systems: list[tuple[str, UnitarySystem]] = [
        ("reflect_t1", rotation_system(BLOCK_REFLECT, 0, 1, 1)),
        ("reflect_t2_off", rotation_system(BLOCK_REFLECT, 0, 1, 2)),
        ("reflect_t2_self", rotation_system(BLOCK_REFLECT, 0, 0, 2)),
        ("rotate_t1", rotation_system(BLOCK_ROTATE, 0, 1, 1)),
        ("rotate_t3", rotation_system(BLOCK_ROTATE, 0, 1, 3)),
        ("rotate_t5_self", rotation_system(BLOCK_ROTATE, 0, 0, 5)),
        ("rotate_t7", rotation_system(BLOCK_ROTATE, 0, 1, 7)),
        ("rotate_t10", rotation_system(BLOCK_ROTATE, 0, 1, 10)),
        ("steep_t4", rotation_system(BLOCK_STEEP, 0, 0, 4)),
        ("swap_t1", rotation_system(BLOCK_SWAP, 0, 1, 1)),
        ("swap_t3", rotation_system(BLOCK_SWAP, 0, 1, 3)),
        ("ident1_t6", identity_system(1, 0, 0, 6)),
        ("ident2_reject_t3", identity_system(2, 0, 1, 3)),
        ("ident4_signed_t5", identity_system(4, 2, 2, 5, signs=(1, -1, -1, 1))),
        ("cycle4_t4_home", cycle_system(4, 0, 0, 4)),
        ("cycle4_t3", cycle_system(4, 1, 0, 3)),
        ("cycle7_t9", cycle_system(7, 2, 4, 9)),
        ("interference_zero", interference_zero_system()),
        (
            "blocks_mixed_t2",
            block_diagonal_system([BLOCK_REFLECT, BLOCK_ROTATE, 1, -1], 2, 3, 2),
        ),
        (
            "blocks_cross_t4",
            block_diagonal_system([BLOCK_REFLECT, BLOCK_SWAP], 0, 2, 4),
        ),
        (
            "blocks_large_t6",
            block_diagonal_system([BLOCK_ROTATE] * 20, 6, 7, 6),
        ),
        (
            "blocks_wide_t10",
            block_diagonal_system([BLOCK_REFLECT] * 32, 40, 41, 10),
        ),
    ]
    return systems


# --- machine families ------------------------------------------------------


def parity_language(x: str) -> bool:
    return x.count("1") % 2 == 0


def _parity_family(member: UnitarySystem) -> tuple[MachineFamily, Callable[[str], bool]]:
    """member on even-parity inputs, exact rejection in as many steps otherwise."""
    t = member.t_bound
    rejecting = identity_system(2, 0, 1, t)
    family = MachineFamily(lambda x, _m: member if parity_language(x) else rejecting, (t,))
    return family, parity_language


def zero_error_family() -> tuple[MachineFamily, Callable[[str], bool]]:
    """Probability exactly 1 on even-parity inputs, exactly 0 otherwise, in 3 steps."""
    return _parity_family(identity_system(1, 0, 0, 3))


def amplified_family() -> tuple[MachineFamily, Callable[[str], bool]]:
    """Error below 2**-8 on every input: a 22-step rotation versus exact zero."""
    return _parity_family(rotation_system(BLOCK_ROTATE, 0, 1, 22))


def leaky_family() -> tuple[MachineFamily, Callable[[str], bool]]:
    """Members accepted with probability 16/25: violates any sharp promise."""
    return _parity_family(rotation_system(BLOCK_REFLECT, 0, 1, 1))


# --- gap machine corpus ----------------------------------------------------


@functools.lru_cache(maxsize=1 << 12)
def _signed_tree(value: int, noise: int) -> Node:
    """Tree with the given gap: a same-label leaf of weight |value|, then noise pairs.

    Trees are immutable, so equal calls share one tree, kept in a bounded
    cache: the corpus machines ask for the same few gaps on every input.
    """
    if value == 0:
        return Branch((ACCEPT, REJECT) * max(noise, 1))
    leaf = ACCEPT if value > 0 else REJECT
    if abs(value) == 1 and not noise:
        return leaf
    return Branch((leaf,) + (ACCEPT, REJECT) * noise, (abs(value),) + (1, 1) * noise)


def _machine(fn: Callable[[str], int]) -> GapMachine:
    return GapMachine(lambda x: _signed_tree(fn(x), len(x) % 3))


def gap_machine_corpus() -> list[tuple[str, GapMachine]]:
    def unpair_diff(z: str) -> int:
        try:
            a, b = unpair(z)
        except DecodeError:
            return -1
        return len(a) - len(b) + 2

    return [
        ("length_plus_one", _machine(lambda x: len(x) + 1)),
        ("ones_minus_zeros", _machine(lambda x: x.count("1") - x.count("0"))),
        ("parity_step", _machine(lambda x: 2 if parity_language(x) else -3)),
        ("const_seven", _machine(lambda x: 7)),
        ("const_minus_two", _machine(lambda x: -2)),
        ("const_zero", _machine(lambda x: 0)),
        ("alternating", _machine(lambda x: (len(x) + 1) * (-1) ** len(x))),
        ("suffix_sign", _machine(lambda x: 1 if x.endswith("1") else -1)),
        ("mod_three", _machine(lambda x: string_to_num(x) % 3 - 1)),
        ("pair_shape", _machine(unpair_diff)),
        ("ones_squared", _machine(lambda x: x.count("1") ** 2 - 2)),
    ]


# --- lowness instances -----------------------------------------------------


def _asks_input(yes_gap: int, no_gap: int) -> OracleGapMachine:
    """Single-query machine that asks its input and finishes on one signed gap."""
    return OracleGapMachine(
        query_count=1,
        next_query=lambda x, _answers: x,
        finish=lambda _x, answers: _signed_tree(yes_gap if answers[0] else no_gap, 0),
    )


def lowness_corpus() -> list[tuple[str, LownessInstance, tuple[str, ...]]]:
    """Instances meeting the path-count budget, with q(n) = 4n and g = 2**(q+2)."""
    oracles = [
        frozenset({"00"}),
        frozenset({"01", "10"}),
        frozenset({"00", "01", "10", "11"}),
        frozenset(),
        frozenset({"11", "01"}),
    ]
    # two_query's second query depends on the first answer; four asymmetric outcomes.
    two_query = {(False, False): -3, (False, True): 2, (True, False): -1, (True, True): 3}
    rows = [
        *((f"self_query_{i}", _asks_input(1, -1), oracle) for i, oracle in enumerate(oracles)),
        *((f"skewed_{i}", _asks_input(3, -2), oracle) for i, oracle in enumerate(oracles[:3])),
        (
            "no_query",
            OracleGapMachine(
                query_count=0,
                next_query=lambda _x, _a: "",
                finish=lambda x, _a: _signed_tree(2 if parity_language(x) else -2, 0),
            ),
            frozenset({"00"}),
        ),
        (
            "two_query",
            OracleGapMachine(
                query_count=2,
                next_query=lambda x, a: x if not a else ("11" if a[0] else "01"),
                finish=lambda _x, a: _signed_tree(two_query[a], 0),
            ),
            frozenset({"00", "11"}),
        ),
        (
            "fixed_query",
            machine_from_tables(1, {"": "10"}, {"1": _signed_tree(2, 0), "0": _signed_tree(-3, 0)}),
            frozenset({"10"}),
        ),
    ]
    inputs = ("00", "01", "10", "11")
    return [
        (name, near_extreme_instance(machine, oracle, (2, 4), (0, 4)), inputs)
        for name, machine, oracle in rows
    ]


def adversarial_lowness_instance() -> tuple[LownessInstance, tuple[str, ...], int, int]:
    """A sign flip under an undersized budget.

    The one-query machine with wrong-branch gap -2 on oracle {"00"}, member
    value 2/3 of g and q = 1, so paths**2 >= 2**1: the inlined gap on "00"
    is -2 against a true gap of 1.  Returns the instance, its inputs, and
    the (member percent, wrong-branch gap) pair that flips.
    """
    instance = near_extreme_instance(
        _asks_input(1, -2),
        frozenset({"00"}),
        g_pow2=(2, 4),
        q_coeffs=(1,),
        member_value=lambda g: g * 2 // 3,
    )
    return instance, ("00",), 66, -2


# --- oracle query systems --------------------------------------------------


def oracle_free_system() -> OracleQuerySystem:
    """Rotation machine that never consults the assignment."""
    d = Draft()
    c0, c1 = d.cfg("0"), d.cfg("1")
    d.block(c0, c1, c0, c1, BLOCK_ROTATE)
    return d.query_system(c0, c1, 2, 3)


def classical_route_system(query: str, accept_on: int = 1) -> OracleQuerySystem:
    """One full-amplitude query routed straight to accept or reject in 2 steps."""
    d = Draft()
    s, sp = d.cfg("s"), d.cfg("s_p")
    hit, miss = d.cfg("hit"), d.cfg("miss")
    rows = (miss, hit) if accept_on == 1 else (hit, miss)
    d.cond_swap(s, sp, *rows, query, 0)
    acc = d.delay_chain(hit, "acc", 1)
    d.delay_chain(miss, "sink", 1)
    return d.query_system(s, acc, 2, max(3, len(query)))


def _split_phases(recombine, *queries: str) -> OracleQuerySystem:
    """Split into arms c1 (3/5) and c2 (4/5), phase-query queries[i] on arm i, recombine."""
    d = Draft()
    s, sp = d.cfg("s"), d.cfg("s_p")
    c1, c2 = d.cfg("c1"), d.cfg("c2")
    acc, w = d.cfg("acc"), d.cfg("w")
    d.block(s, sp, c1, c2)
    d.block(c1, c2, acc, w, recombine)
    for arm, query in zip((c1, c2), queries):
        d.cond_phase(arm, query, 1)
    return d.query_system(s, acc, 2, 3)


def phase_split_system(query: str) -> OracleQuerySystem:
    """Split, phase-query on the lighter arm, recombine: bit 1 costs 1 - 7/25."""
    return _split_phases(((3, 4), (-4, 3)), query)


def double_phase_system(qa: str, qb: str) -> OracleQuerySystem:
    """Both arms carry phase queries on different strings."""
    return _split_phases(BLOCK_REFLECT, qa, qb)


def four_way_phase_system() -> OracleQuerySystem:
    """Two-level split; four arms phase-query four strings with unequal mass."""
    d = Draft()
    s, sp = d.cfg("s"), d.cfg("s_p")
    c1, c2 = d.cfg("c1"), d.cfg("c2")
    z1, z2 = d.cfg("z1"), d.cfg("z2")
    d1, d2, d3, d4 = (d.cfg(f"d{i}") for i in range(4))
    m1, m2 = d.cfg("m1"), d.cfg("m2")
    acc, w1 = d.cfg("acc"), d.cfg("w1")
    d.block(s, sp, c1, c2)
    d.block(c1, z1, d1, d2)
    d.block(c2, z2, d3, d4)
    for arm, y in zip((d1, d2, d3, d4), ("000", "001", "010", "011")):
        d.cond_phase(arm, y, 2)
    d.block(d1, d2, m1, m2)
    d.block(d3, d4, acc, w1, ((4, -3), (3, 4)))
    return d.query_system(s, acc, 3, 3)


def sequential_query_system() -> OracleQuerySystem:
    """Classical chain: accept only if both queried bits are 1."""
    d = Draft()
    s, sp = d.cfg("s"), d.cfg("s_p")
    u, dead1 = d.cfg("u"), d.cfg("dead1")
    up = d.cfg("u_p")
    hit, dead2 = d.cfg("hit"), d.cfg("dead2")
    d.cond_swap(s, sp, dead1, u, "0", 0)
    d.cond_swap(u, up, dead2, hit, "11", 1)
    d.delay_chain(dead1, "sink1", 1)
    return d.query_system(s, hit, 2, 3)


def global_phase_system(query: str) -> OracleQuerySystem:
    """Queries with full magnitude but only a global phase: flips never matter."""
    d = Draft()
    s = d.cfg("s")
    mid, acc = d.cfg("mid"), d.cfg("acc")
    d.route(s, mid)
    d.route(mid, acc)
    d.cond_phase(s, query, 0)
    return d.query_system(s, acc, 2, 3)


def deep_chain_system(
    depth: int, query: str, universe_length: int | None = None
) -> OracleQuerySystem:
    """Amplitude (3/5)**depth reaches one routed query; tiny query magnitude.

    Every block leaks 4/5 of the arriving amplitude into a delay track, so
    the probe string is consulted with squared magnitude (9/25)**depth.
    """
    t = depth + 1
    d = Draft()
    chain = [d.cfg(f"c{i}") for i in range(depth + 1)]
    for i in range(depth):
        leak = d.cfg(f"leak{i}")
        d.block(chain[i], d.cfg(f"z{i}"), chain[i + 1], leak)
        d.delay_chain(leak, f"track{i}", t - i - 2)
    cp = d.cfg("c_p")
    miss, acc = d.cfg("miss"), d.cfg("acc")
    d.cond_swap(chain[depth], cp, miss, acc, query, depth)
    return d.query_system(
        chain[0], acc, t, universe_length if universe_length else max(3, len(query))
    )


def flip_stability_corpus() -> list[tuple[str, OracleQuerySystem, frozenset[str]]]:
    """Query systems paired with base assignments, universes of <= 15 strings."""
    return [
        ("oracle_free", oracle_free_system(), frozenset()),
        ("route_hit", classical_route_system("101"), frozenset({"101"})),
        ("route_miss", classical_route_system("101"), frozenset()),
        ("route_inverted", classical_route_system("01", accept_on=0), frozenset({"01"})),
        ("phase_split", phase_split_system("00"), frozenset()),
        ("phase_split_set", phase_split_system("00"), frozenset({"00"})),
        ("double_phase", double_phase_system("01", "10"), frozenset({"01"})),
        ("four_way", four_way_phase_system(), frozenset({"001"})),
        ("sequential", sequential_query_system(), frozenset({"0", "11"})),
        ("global_phase", global_phase_system("111"), frozenset()),
        ("deep_tiny", deep_chain_system(11, "110"), frozenset()),
    ]


# --- re-relativization corpus ----------------------------------------------


def or_of_two_system() -> OracleQuerySystem:
    """Reversibly computes bit("00") OR bit("10") into a single accept state.

    Both query bits are recorded, the disjunction is written, and the
    records are erased by re-querying, so exactly one configuration carries
    each outcome at the final step.
    """
    d = Draft()
    s, sp = d.cfg("s"), d.cfg("s_p")
    u0, u1 = d.cfg("u0"), d.cfg("u1")
    d.cond_swap(s, sp, u0, u1, "00", 0)
    v = {key: d.cfg(f"v{key}") for key in ("00", "01", "10", "11")}
    d.cond_swap(u0, d.cfg("u0_p"), v["00"], v["01"], "10", 1)
    d.cond_swap(u1, d.cfg("u1_p"), v["10"], v["11"], "10", 1)
    w = {key: d.cfg(f"w{key}") for key in ("000", "101", "110", "111", "010", "100")}
    d.route(v["00"], w["000"])  # w[r + b0 + b1]
    d.route(v["01"], w["101"])
    d.route(v["10"], w["110"])
    d.route(v["11"], w["111"])
    x = {key: d.cfg(f"x{key}") for key in ("00", "11", "10", "01")}
    d.cond_swap(w["000"], w["010"], x["00"], d.cfg("j1"), "00", 3)  # erase b0
    d.cond_swap(w["101"], w["111"], x["11"], d.cfg("j2"), "00", 3)
    d.cond_swap(w["100"], w["110"], x["10"], d.cfg("j3"), "00", 3)
    f0, f1 = d.cfg("f0"), d.cfg("f1")
    d.cond_swap(x["00"], x["01"], f0, d.cfg("j4"), "10", 4)  # erase b1
    d.cond_swap(x["10"], x["11"], f1, d.cfg("j5"), "10", 4)
    return d.query_system(s, f1, 5, 4)


def decider_corpus() -> list[tuple[str, OracleQuerySystem]]:
    return [
        ("oracle_free", oracle_free_system()),
        ("short_or", or_of_two_system()),
        ("long_probe", classical_route_system("0110")),
        ("long_probe_inverted", classical_route_system("0110", accept_on=0)),
        ("deep_tiny_long", deep_chain_system(11, "1010", universe_length=4)),
    ]


def decider_conditions() -> list[tuple[str, TowerCondition]]:
    """Tower conditions over lengths {2, 4}, domain closed through length 4."""
    domain = frozenset(range(5))
    acceptable = frozenset({2, 4})
    out = []
    for short_one in ("00", "10"):
        for long_one in strings_of_length(4):
            name = f"cond_{short_one}_{long_one}"
            out.append(
                (
                    name,
                    TowerCondition(acceptable, domain, frozenset({short_one, long_one})),
                )
            )
    return out


# --- shipped corpus files ---------------------------------------------------


def write_corpus(root: str) -> list[str]:
    """Materialize the file-based corpus; returns the relative paths written."""
    written: list[str] = []

    def emit(rel: str, doc) -> None:
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(rel)

    for name, system in unitary_corpus():
        emit(f"machines/{name}.json", system.to_file_dict())
    for name, machine in gap_machine_corpus()[:4]:
        emit(
            f"trees/{name}.json",
            {"kind": "tree", "tree": tree_to_json(machine.evaluator("01"))},
        )
    emit(
        "trees/reflect_t1_compiled.json",
        {"kind": "system", "path": "../machines/reflect_t1.json"},
    )
    finish = {
        "1": tree_to_json(_signed_tree(1, 0)),
        "0": tree_to_json(_signed_tree(-3, 0)),
    }
    emit(
        "lowness/fixed_query.json",
        {
            "machine": {"query_count": 1, "queries": {"": "00"}, "trees": finish},
            "oracle": ["00"],
            "certificate": {"style": "near-extreme", "g_pow2": [2, 4]},
            "q": [0, 4],
            "inputs": ["00", "01"],
        },
    )
    return written


def main(argv: Sequence[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1:
        print("usage: python -m gapsim.corpus OUTPUT_DIR", file=sys.stderr)
        return 2
    for rel in write_corpus(args[0]):
        print(rel)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
