"""Hypothesis strategies shared by test modules: 2x2 blocks and Draft oracle machines."""

from itertools import product

from hypothesis import strategies as st

from gapsim.corpus import Draft
from gapsim.model import ALLOWED_NUMERATORS
from gapsim.strings import strings_up_to

# 2x2 blocks (a b; c d) over the allowed numerators with orthogonal columns of norm 25
BLOCKS = [
    (a, b, c, d)
    for a, b, c, d in product(sorted(ALLOWED_NUMERATORS), repeat=4)
    if a * a + c * c == 25 == b * b + d * d and a * b + c * d == 0
]


@st.composite
def draft_query_systems(draw, universe_lengths=st.integers(min_value=0, max_value=3)):
    """Small Draft machines: 2x2 blocks, +-5 routes and swap queries, and phase
    queries at steps 0..t-1.

    Returns the machine and the ones of a base assignment on its universe,
    whose length is drawn from universe_lengths.  A swap query wires two
    configurations as routes that trade rows at one step; Draft refuses a
    configuration that both swaps and flips sign, and a second phase query
    on one configuration at one step, so each drawn phase (configuration,
    step) pair is kept only off the swapped configurations, and only once;
    a configuration may be phase-queried at several steps.
    """
    d = Draft()
    n = draw(st.integers(min_value=1, max_value=8))
    t = draw(st.integers(min_value=1, max_value=6))
    universe_length = draw(universe_lengths)
    universe = list(strings_up_to(universe_length))
    configs = [d.cfg(str(i)) for i in range(n)]
    rows = draw(st.permutations(configs))
    swapped = set()
    i = 0
    while i < n:
        wiring = draw(st.sampled_from(("block", "swap", "route"))) if i + 1 < n else "route"
        if wiring == "block":
            a, b, c, e = draw(st.sampled_from(BLOCKS))
            d.block(configs[i], configs[i + 1], rows[i], rows[i + 1], ((a, b), (c, e)))
            i += 2
        elif wiring == "swap":
            y, step = draw(st.sampled_from(universe)), draw(st.integers(0, t - 1))
            d.cond_swap(configs[i], configs[i + 1], rows[i], rows[i + 1], y, step)
            swapped.update(configs[i : i + 2])
            i += 2
        else:
            d.route(configs[i], rows[i], draw(st.sampled_from((1, -1))))
            i += 1
    slots = st.tuples(st.sampled_from(configs), st.integers(min_value=0, max_value=t - 1))
    for config, step in draw(st.lists(slots, max_size=4, unique=True)):
        if config not in swapped:
            d.cond_phase(config, draw(st.sampled_from(universe)), step)
    start, accept = draw(st.sampled_from(configs)), draw(st.sampled_from(configs))
    system = d.query_system(start, accept, t, universe_length)
    return system, frozenset(draw(st.sets(st.sampled_from(universe))))
