"""Seeded input generators; gapsim only ever sees what these produce.

Systems are V = P.B with B a direct sum of 2x2 blocks over {+-3, +-4, +-5}
and P a permutation: a random one ("mixing") or a small odd cyclic shift
("banded", whose forward cone grows by about one configuration per step).
The accept configuration is the end of a random walk of length t from
start along nonzero entries, so it lies inside the forward cone at step t;
a uniformly random accept almost always gives banded systems probability 0.
"""

from __future__ import annotations

import random

from gapsim.trees import ACCEPT, REJECT, Branch

PYTHAGOREAN = ((3, 4), (4, 3))


def _block(rng: random.Random, a: int, b: int) -> list[tuple[int, int, int]]:
    """Entries (row, col, w) of one 2x2 block on configurations a, b."""
    if rng.random() < 0.25:
        s1, s2 = rng.choice((5, -5)), rng.choice((5, -5))
        if rng.random() < 0.5:
            return [(a, a, s1), (b, b, s2)]
        return [(b, a, s1), (a, b, s2)]
    x, y = rng.choice(PYTHAGOREAN)
    x *= rng.choice((1, -1))
    y *= rng.choice((1, -1))
    sign = rng.choice((1, -1))
    # column a = (x, y); column b = sign * (-y, x) is orthogonal with norm 25
    return [(a, a, x), (b, a, y), (a, b, -sign * y), (b, b, sign * x)]


def pb_system(rng: random.Random, n: int, t: int, banded: bool) -> dict:
    """Machine-file dict of a P.B system with n (even) configurations."""
    block_entries = []
    for k in range(n // 2):
        block_entries.extend(_block(rng, 2 * k, 2 * k + 1))
    if banded:
        shift = rng.choice((1, 3))
        perm = [(i + shift) % n for i in range(n)]
    else:
        perm = list(range(n))
        rng.shuffle(perm)
    entries = sorted((perm[r], c, w) for r, c, w in block_entries)
    successors: dict[int, list[int]] = {}
    for r, c, _w in entries:
        successors.setdefault(c, []).append(r)
    start = rng.randrange(n)
    accept = start
    for _ in range(t):
        accept = rng.choice(successors[accept])
    return {
        "n_configs": n,
        "entries": [list(e) for e in entries],
        "start": start,
        "accept": accept,
        "t": t,
    }


def forward_cone_pairs(machine: dict) -> int:
    """(config, step) pairs reachable from start along nonzero entries, steps 0..t."""
    successors: dict[int, list[int]] = {}
    for r, c, _w in machine["entries"]:
        successors.setdefault(c, []).append(r)
    frontier = {machine["start"]}
    total = 1
    for _ in range(machine["t"]):
        frontier = {r for c in frontier for r in successors.get(c, ())}
        total += len(frontier)
    return total


def binary_string(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def signed_tree(value: int):
    """Tree with gap `value`: |value| leaves of one label (a lone leaf for +-1)."""
    leaf = ACCEPT if value > 0 else REJECT
    if abs(value) == 1:
        return leaf
    return Branch((leaf,) * abs(value))


def two_query_design(rng: random.Random, n: int) -> dict:
    """An adaptive two-query oracle machine on an input of length n >= 2.

    The first query is the input itself; the second is one of two length-2
    strings picked by the first answer.  Each answer pair ends in a tree
    with a nonzero gap in [-3, 3], so at most 3 paths: 3**2 < 2**(4n).
    The three queried strings are distinct; the input and the second query
    after a yes are in the oracle, the other is not.  Inlining copies a
    member's g-leaf approximator tree, so a fixed membership pattern and
    fixed gap magnitudes keep the work (and memory) the same for every
    seed; the seed picks the strings and the signs of the outcome gaps.
    """
    x = binary_string(rng, n)
    pairs = [s for s in ("00", "01", "10", "11") if s != x]
    yes, no = rng.sample(pairs, 2)
    magnitudes = {(False, False): 1, (False, True): 2, (True, False): 3, (True, True): 3}
    return {
        "x": x,
        "second": {True: yes, False: no},
        "outcomes": {
            answers: rng.choice((1, -1)) * size for answers, size in magnitudes.items()
        },
        "oracle": frozenset((x, yes)),
    }
