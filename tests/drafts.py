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
    """Small Draft machines: 2x2 blocks and +-5 routes, phase queries at steps 0..t-1.

    Returns the machine and the ones of a base assignment on its universe,
    whose length is drawn from universe_lengths.  Draft refuses a second
    phase query on one configuration at one step, so each (configuration,
    step) pair takes at most one; a configuration may be queried at several
    steps.
    """
    d = Draft()
    n = draw(st.integers(min_value=1, max_value=8))
    configs = [d.cfg(str(i)) for i in range(n)]
    rows = draw(st.permutations(configs))
    i = 0
    while i < n:
        if i + 1 < n and draw(st.booleans()):
            a, b, c, e = draw(st.sampled_from(BLOCKS))
            d.block(configs[i], configs[i + 1], rows[i], rows[i + 1], ((a, b), (c, e)))
            i += 2
        else:
            d.route(configs[i], rows[i], draw(st.sampled_from((1, -1))))
            i += 1
    t = draw(st.integers(min_value=1, max_value=6))
    universe_length = draw(universe_lengths)
    universe = list(strings_up_to(universe_length))
    slots = st.tuples(st.sampled_from(configs), st.integers(min_value=0, max_value=t - 1))
    for config, step in draw(st.lists(slots, max_size=4, unique=True)):
        d.cond_phase(config, draw(st.sampled_from(universe)), step)
    start, accept = draw(st.sampled_from(configs)), draw(st.sampled_from(configs))
    system = d.query_system(start, accept, t, universe_length)
    return system, frozenset(draw(st.sets(st.sampled_from(universe))))
