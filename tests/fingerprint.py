"""Accept numerators modulo primes: an exact oracle whose cost grows with log t.

The amplitude of accept after t steps is (M^t)[accept][start] / 5**t, where
M is the integer matrix of a system's entries: a sum over paths of products
of integer weights, the GapP view of the amplitude.  So the probability
numerator over 25**t is that entry squared.  Here the entry is taken modulo
p by repeated squaring of M, from `system.entries` alone, so it shares no
code with the block tables, cone orders and step loop that it checks.  A
mismatch modulo a prime proves a fault in the checked code or here.

An n-configuration system costs about n**3 * log2(t) modular products, so
keep n small.
"""

from operator import mul

PRIMES = (2**61 - 1, 998_244_353)


def accept_numerator_mod(system, p: int) -> int:
    """The accept probability numerator over 25**t_bound, modulo p."""
    n = system.n_configs
    power = [[0] * n for _ in range(n)]  # M^(2^i) mod p at the i-th bit of t
    for r, c, w in system.entries:
        power[r][c] = w % p
    vector = [int(c == system.start) for c in range(n)]  # M^(t's bits so far) e_start
    t = system.t_bound
    while t:
        if t & 1:
            vector = [sum(map(mul, row, vector)) % p for row in power]
        t >>= 1
        if t:
            columns = list(zip(*power))
            power = [[sum(map(mul, row, column)) % p for column in columns] for row in power]
    return vector[system.accept] ** 2 % p
