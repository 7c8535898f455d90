"""Finite configuration systems with fifth-integer transition amplitudes.

A system stores the integer matrix V (five times the amplitude matrix), a
start and a single accept configuration, and a running-time bound.  Every
accepted system satisfies the exact integer identity V^T V = 25 I, which is
the scaled statement that the amplitude matrix preserves the L2 norm.

Block theorem: with every numerator in {+-3, +-4, +-5}, V^T V = 25 I holds
exactly when V's columns split into singles, one +-5 alone in its column
and its row, and pairs, two columns holding one 3 and one 4 each on the
same two rows, with orthogonal columns and nothing else on those rows.
Proof: V is square, so V^T V = 25 I gives V V^T = 25 I as well, and every
column and every row has squared norm 25.  Squares lie in {9, 16, 25}, so
each line holds one +-5 or one +-3 and one +-4.  A row through a 3/4
column c holds exactly one other entry, in some column c2; the inner
product of c and c2 has a nonzero term on that row, so it needs a second
term, and c2 meets c's other row too.  Conversely, blocks on disjoint rows
give orthogonal columns.  Validation is this decomposition, in one walk over
the entries that also checks their ranges, numerators and repeats (see
column_blocks); the blocks are kept on the system, and evolve steps by them.
A refused system's message names its first fault, for a matrix the first
column pair whose inner product is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    AmplitudeError, GapsimError, ModelError, ParseError, ResourceError, StructuralError
)

ALLOWED_NUMERATORS = frozenset({-5, -4, -3, 0, 3, 4, 5})
_NONZERO_NUMERATORS = ALLOWED_NUMERATORS - {0}
DEFAULT_MAX_CONFIGS = 4096

Entry = tuple[int, int, int]  # (row, col, numerator), numerator nonzero
Pair = tuple[int, int, int, int, int, int, int, int]  # (c1, c2, r1, r2, a, b, c, d)
Single = tuple[int, int, int]  # (col, row, numerator)
Blocks = tuple[tuple[Pair, ...], tuple[Single, ...]]


def _gram_first_violation(
    n: int, entries: Iterable[Entry]
) -> tuple[int, int, int, int] | None:
    """First (i, j) with column inner product != 25*delta_ij, else None.

    Columns are walked in order, each against the columns j >= i sharing a
    row with it, and the walk stops at the first bad one: (i, i) when its
    squared norm is not 25, else its smallest j > i with a nonzero product.
    """
    rows: dict[int, list[tuple[int, int]]] = {}
    cols: dict[int, list[tuple[int, int]]] = {}
    for r, c, w in entries:
        rows.setdefault(r, []).append((c, w))
        cols.setdefault(c, []).append((r, w))
    for i in range(n):
        products: dict[int, int] = {}
        for r, wi in cols.get(i, ()):
            for j, wj in rows[r]:
                if j >= i:
                    products[j] = products.get(j, 0) + wi * wj
        got = products.pop(i, 0)
        if got != 25:
            return i, i, got, 25
        j = min((j for j, value in products.items() if value), default=None)
        if j is not None:
            return i, j, products[j], 0
    return None


def column_blocks(n: int, entries: Iterable[Entry]) -> Blocks | None:
    """V's columns as (pairs, singles), or None for any fault in the entries.

    One walk over the entries, in any order, checks each one's range and
    numerator, files it under its column and adds it to its row's tally; a
    (row, col) given twice leaves a column that meets one row twice or holds
    three entries.  A pass over the columns then records each
    configuration's block, reading a pair's second column off the tally of
    its first row.  A pair (c1, c2, r1, r2, a, b, c, d) is the block with
    V[r1][c1] = a, V[r1][c2] = b, V[r2][c1] = c and V[r2][c2] = d, c1 < c2;
    a single (c, r, w) is V[r][c] = w = +-5.  Every entry lies in exactly
    one block, and blocks share no row.
    """
    cols: list[list[Entry]] = [[] for _ in range(n)]
    rows = [0] * n  # (entries on the row) * n + (the sum of their columns)
    for entry in entries:
        r, c, w = entry
        if not (0 <= r < n and 0 <= c < n and w in _NONZERO_NUMERATORS):
            return None
        cols[c].append(entry)
        rows[r] += n + c
    pairs: list[Pair] = []
    singles: list[Single] = []
    paired = [False] * n
    for c1, col in enumerate(cols):
        if len(col) == 2:
            if paired[c1]:
                continue
            (r1, _, a), (r2, _, c) = col
            c2 = rows[r1] - 2 * n - c1  # in 0..n-1 iff row r1 holds c1 and one more
            if r1 == r2 or rows[r2] != rows[r1] or not 0 <= c2 < n or a * a + c * c != 25:
                return None
            col2 = cols[c2]
            if len(col2) != 2:
                return None
            (s1, _, b), (_, _, d) = col2
            if s1 != r1:
                b, d = d, b
            if a * b + c * d != 0 or b * b + d * d != 25:
                return None
            paired[c2] = True
            pairs.append((c1, c2, r1, r2, a, b, c, d))
        elif len(col) == 1:
            ((r, _, w),) = col
            if w * w != 25 or rows[r] != n + c1:
                return None
            singles.append((c1, r, w))
        else:
            return None
    return tuple(pairs), tuple(singles)


def _breadth_first(
    block_of: list, seed: int, depth: int, forward: bool
) -> tuple[Blocks, list[tuple[int, int]]]:
    """Blocks within depth - 1 steps of seed in breadth-first order, with counts.

    block_of[i] is the block that reads configuration i (forward) or writes
    it (backward).  Forward, the walk enters a block through a column and
    leaves through its rows; backward, through a row and leaves through its
    columns.  The block entered through seed is at distance 0.  counts[d]
    is the number of (pairs, singles) at distance at most d, so the blocks
    at distance at most d are a prefix of each returned tuple.  A block is
    taken under its first column, and it is read once, when taken.  The
    walk stops early once a layer takes no block.
    """
    pairs: list[Pair] = []
    singles: list[Single] = []
    counts: list[tuple[int, int]] = []
    taken = bytearray(len(block_of))
    out1, out2, out = (2, 3, 1) if forward else (0, 1, 0)
    layer = [seed]
    for _ in range(depth):
        following: list[int] = []
        for i in layer:
            block = block_of[i]
            if not taken[block[0]]:
                taken[block[0]] = 1
                if len(block) == 3:
                    singles.append(block)
                    following.append(block[out])
                else:
                    pairs.append(block)
                    following += block[out1], block[out2]
        count = (len(pairs), len(singles))
        if counts and count == counts[-1]:
            break
        counts.append(count)
        layer = following
    return (tuple(pairs), tuple(singles)), counts


@dataclass(frozen=True)
class UnitarySystem:
    """Validated configuration system; immutable and safe to share across threads."""

    n_configs: int
    entries: tuple[Entry, ...]  # sorted by (row, col), zeros omitted
    start: int
    accept: int
    t_bound: int
    blocks: Blocks = field(compare=False, repr=False)  # column_blocks(n_configs, entries)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """columns[c] = ((row, numerator), ...) for each configuration c, rows ascending."""
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.n_configs)]
        for r, c, w in self.entries:
            cols[c].append((r, w))
        return tuple(map(tuple, cols))

    @cached_property
    def _cone_order(self) -> tuple[tuple[Blocks, list[tuple[int, int]]], ...]:
        """The blocks walked forward from start and backward from accept.

        Each walk is (blocks, counts), see _breadth_first.  Computed on the first
        accept run (accept_probability or float_check), never by validation.
        """
        pairs, singles = self.blocks
        reads, writes = [None] * self.n_configs, [None] * self.n_configs
        for block in pairs:
            reads[block[0]] = reads[block[1]] = writes[block[2]] = writes[block[3]] = block
        for block in singles:
            reads[block[0]] = writes[block[1]] = block
        return (
            _breadth_first(reads, self.start, self.t_bound, forward=True),
            _breadth_first(writes, self.accept, self.t_bound, forward=False),
        )

    def to_file_dict(self) -> dict:
        """Machine-file form of this system."""
        return {
            "n_configs": self.n_configs,
            "entries": [list(e) for e in self.entries],
            "start": self.start,
            "accept": self.accept,
            "t": self.t_bound,
        }


def make_system(
    n_configs: int,
    entries: Iterable[Entry],
    start: int,
    accept: int,
    t: int,
) -> UnitarySystem:
    """Build and validate a system from int fields and (row, col, numerator) int triples.

    The entries may come in any order; the system keeps them sorted.
    """
    return _checked_system(n_configs, tuple(sorted(entries)), start, accept, t, DEFAULT_MAX_CONFIGS)


def _checked_system(
    n_configs: int, ordered: tuple, start: int, accept: int, t: int, max_configs: int
) -> UnitarySystem:
    """Validate int fields and int entries sorted by (row, col)."""
    if n_configs < 1:
        raise StructuralError("n_configs must be positive")
    if n_configs > max_configs:
        raise ResourceError("n_configs", n_configs, max_configs, "--max-configs")
    if not 0 <= start < n_configs:
        raise StructuralError(f"start index {start} out of range")
    if not 0 <= accept < n_configs:
        raise StructuralError(f"accept index {accept} out of range")
    if t < 0:
        raise StructuralError("running time must be nonnegative")
    return UnitarySystem(n_configs, ordered, start, accept, t, checked_blocks(n_configs, ordered))


def checked_blocks(n: int, entries: Sequence[Entry]) -> Blocks:
    """column_blocks of the entries, or the refusal of the first fault.

    Every matrix is checked here, by the one walk of column_blocks.  Only
    when it finds a fault do the sequential checks name the first one: a
    (row, col) twice, then the range of each entry and its numerator, then
    the first column pair whose inner product is not 25 * delta.
    """
    blocks = column_blocks(n, entries)
    if blocks is not None:
        return blocks
    if len({(r, c) for r, c, _ in entries}) != len(entries):
        raise StructuralError("duplicate matrix entries")
    for r, c, w in entries:
        if not (0 <= r < n and 0 <= c < n):
            raise StructuralError(f"entry ({r},{c}) out of range")
        if w not in _NONZERO_NUMERATORS:
            raise AmplitudeError(f"numerator {w} at ({r},{c}) not in the allowed set")
    i, j, got, want = _gram_first_violation(n, entries)
    raise ModelError(
        f"not norm-preserving: inner product of columns ({i},{j}) is {got}, expected {want}"
    )


def build_system(description: Mapping, max_configs: int = DEFAULT_MAX_CONFIGS) -> UnitarySystem:
    """Parse a machine-file dictionary into a validated UnitarySystem.

    The canonical file form has entries sorted by (row, col) with no
    duplicates and no explicit zeros; anything else is a ParseError.
    """
    fields = read_fields(description, MACHINE_FILE)
    entries: list[Entry] = []
    increasing = True
    last_r = last_c = float("-inf")
    for item in fields["entries"]:
        try:
            r, c, w = item
        except (TypeError, ValueError):
            raise ParseError(f"bad entry {item!r}") from None
        if type(r) is not int or type(c) is not int or type(w) is not int:
            raise ParseError(f"bad entry {item!r}")
        if w == 0:
            raise ParseError("explicit zero entries must be omitted")
        if r < last_r or r == last_r and c <= last_c:
            increasing = False
        last_r, last_c = r, c
        entries.append((r, c, w))
    if not increasing:
        keys = [(r, c) for r, c, _ in entries]
        if keys != sorted(keys):
            raise ParseError("entries must be sorted by (row, col)")
        raise ParseError("duplicate entries")
    return _checked_system(
        fields["n_configs"],
        tuple(entries),
        fields["start"],
        fields["accept"],
        fields["t"],
        max_configs,
    )


def kind_of(what: str, test: Callable[[object], bool]) -> tuple:
    """The field kind (what, read) of the values that pass test.

    read keeps such a value and raises ParseError for any other.  A kind
    whose read converts, such as a tree's (gapp.tree_from_json), may give
    the ParseError a detail.
    """

    def read(value):
        if not test(value):
            raise ParseError()
        return value

    return what, read


INT = kind_of("an integer", lambda v: type(v) is int)
NAT = kind_of("a non-negative integer", lambda v: type(v) is int and v >= 0)
STRING = kind_of("a string", lambda v: type(v) is str)
NAT_LIST = kind_of(
    "a list of non-negative integers",
    lambda v: type(v) is list and all(type(c) is int and c >= 0 for c in v),
)
ENTRIES = kind_of("a list of [row, col, numerator] entries", lambda v: type(v) is list)
MACHINE_FILE = {"n_configs": INT, "entries": ENTRIES, "start": INT, "accept": INT, "t": INT}


def read_fields(doc, table: Mapping, prefix: str = "") -> dict:
    """Each field of the object doc read by its kind in table, or by a nested table.

    Refuses a doc that is not an object, an unknown key, then the first
    field in table order that is missing or not of its kind, in one line
    that names the key (dotted after prefix) and what the field must be.
    A field reader's ParseError, or a cap it meets (a ResourceError), gets
    that line in place, its own text in parentheses, and keeps its class.
    """
    if not isinstance(doc, Mapping):
        raise ParseError(f"field {prefix[:-1]!r} must be an object" if prefix else "not an object")
    unknown = doc.keys() - table.keys()
    if unknown:
        raise ParseError(f"unknown field {prefix + min(map(str, unknown))!r}")
    fields = {}
    for key, kind in table.items():
        name = prefix + key
        nested = isinstance(kind, dict)
        if key not in doc:
            raise ParseError(f"missing field {name!r} ({'an object' if nested else kind[0]})")
        if nested:
            fields[key] = read_fields(doc[key], kind, name + ".")
            continue
        try:
            fields[key] = kind[1](doc[key])
        except (ParseError, ResourceError) as exc:  # ResourceError: a cap, such as a tree's size
            exc.args = (f"field {name!r} must be {kind[0]}" + (f" ({exc})" if exc.args else ""),)
            raise
    return fields


def load_file(path: str, read: Callable, *args) -> tuple:
    """read(doc, *args) of the JSON object in the file at path, and the bytes read.

    Every refusal names the path: an unreadable file, undecodable or too
    deeply nested contents and a non-object top level are ParseErrors, and
    each GapsimError of read gets the path in place, keeping its class.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        doc = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be a JSON object")
    try:
        return read(doc, *args), data
    except GapsimError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_system(path: str) -> UnitarySystem:
    """Read a machine file from disk."""
    return load_file(path, build_system)[0]


def eval_poly(coeffs: Sequence[int], n: int) -> int:
    """Evaluate sum(c_i * n**i), coefficients constant term first, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class MachineFamily:
    """Input-indexed systems sharing one running-time polynomial.

    builder(x, m) must return a system with t_bound equal to t(m) for every
    padding length m >= len(x).
    """

    builder: Callable[[str, int], UnitarySystem]
    t_poly: tuple[int, ...]

    def t(self, m: int) -> int:
        return eval_poly(self.t_poly, m)

    def system(self, x: str, m: int | None = None) -> UnitarySystem:
        m = len(x) if m is None else m
        if m < len(x):
            raise StructuralError("padding length shorter than the input")
        system = self.builder(x, m)
        if system.t_bound != self.t(m):
            raise ModelError(
                f"builder produced t={system.t_bound}, expected {self.t(m)}"
            )
        return system
