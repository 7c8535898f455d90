"""Binary strings, their numbering, and the pairing code used throughout.

Strings over {0,1} are identified with the positive integers by prepending
a 1 bit: "" <-> 1, "0" <-> 2, "1" <-> 3, "00" <-> 4, and so on.  Pairs of
strings are coded through the Cantor pairing of their numbers, which keeps
both directions computable in time polynomial in the code length.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import itemgetter
from typing import Iterator

from .errors import DecodeError


def is_binary(value) -> bool:
    """A str over {0, 1}; unlike int(x, 2), "_" and whitespace are refused."""
    return isinstance(value, str) and not value.strip("01")


def string_to_num(x: str) -> int:
    """Number of a binary string under the 1-prefix isomorphism (always >= 1)."""
    if not is_binary(x):
        raise DecodeError(f"not a binary string: {x!r}")
    return int("1" + x, 2)


def num_to_string(n: int) -> str:
    """Inverse of string_to_num; defined for n >= 1."""
    if n < 1:
        raise DecodeError(f"no string is numbered {n}")
    return bin(n)[3:]


def index_string(k: int) -> str:
    """The k-th binary string (k >= 0) in length-then-lexicographic order."""
    return num_to_string(k + 1)


def pair(x: str, y: str) -> str:
    """Injective pair code of two binary strings: the Cantor pairing of their numbers."""
    a, b = string_to_num(x), string_to_num(y)
    return num_to_string((a + b) * (a + b + 1) // 2 + b)


_DROP_PREFIX = itemgetter(slice(3, None))  # bin(n) is "0b1" + the string numbered n


def pair_codes(x: str, count: int) -> Iterator[str]:
    """pair(x, y) for the strings y numbered 1 .. count (count >= 1), in that order.

    x is read once; the codes start at <a, 1> = (a + 1)(a + 2)/2 + 1, and
    consecutive codes <a, b> and <a, b + 1> differ by a + b + 2, so every
    code comes from one running sum.
    """
    a = string_to_num(x)
    codes = accumulate(range(a + 3, a + count + 2), initial=(a + 1) * (a + 2) // 2 + 1)
    return map(_DROP_PREFIX, map(bin, codes))


def unpair(z: str) -> tuple[str, str]:
    """Inverse of pair; raises DecodeError on codes pair never produces."""
    n = string_to_num(z)
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    a = w - b
    if a < 1 or b < 1:
        raise DecodeError(f"{z!r} is not a pair code")
    return num_to_string(a), num_to_string(b)


def strings_of_length(n: int) -> Iterator[str]:
    """All binary strings of exactly length n, lexicographically: the
    strings numbered 2**n .. 2**(n + 1) - 1."""
    return map(_DROP_PREFIX, map(bin, range(1 << n, 2 << n)))


def strings_up_to(n: int) -> Iterator[str]:
    """All binary strings of length <= n, shortest first: the strings
    numbered 1 .. 2**(n + 1) - 1."""
    return map(_DROP_PREFIX, map(bin, range(1, 2 << n)))
