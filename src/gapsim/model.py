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
give orthogonal columns.  Validation is this decomposition; the blocks are
kept on the system, and evolve steps by them.  A refused system's message
names the first column pair whose inner product is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import AmplitudeError, ModelError, ParseError, StructuralError
from .poly import eval_poly

ALLOWED_NUMERATORS = frozenset({-5, -4, -3, 0, 3, 4, 5})
DEFAULT_MAX_CONFIGS = 4096

Entry = tuple[int, int, int]  # (row, col, numerator), numerator nonzero
Pair = tuple[int, int, int, int, int, int, int, int]  # (c1, c2, r1, r2, a, b, c, d)
Single = tuple[int, int, int]  # (col, row, numerator)
Blocks = tuple[tuple[Pair, ...], tuple[Single, ...]]


def _gram_first_violation(
    n: int, entries: Iterable[Entry]
) -> tuple[int, int, int, int] | None:
    """First (i, j) with column inner product != 25*delta_ij, else None."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for r, c, w in entries:
        rows.setdefault(r, []).append((c, w))
    gram: dict[tuple[int, int], int] = {}
    for items in rows.values():
        for ci, wi in items:
            for cj, wj in items:
                if ci <= cj:
                    gram[(ci, cj)] = gram.get((ci, cj), 0) + wi * wj
    bad: list[tuple[int, int, int, int]] = []
    for i in range(n):
        got = gram.pop((i, i), 0)
        if got != 25:
            bad.append((i, i, got, 25))
    bad.extend((i, j, got, 0) for (i, j), got in gram.items() if got != 0)
    return min(bad) if bad else None


def column_blocks(n: int, entries: Iterable[Entry]) -> Blocks | None:
    """V's columns as (pairs, singles), or None when V^T V != 25 I.

    Entries come in any order, without duplicates, inside 0..n-1, with
    numerators in {+-3, +-4, +-5}.  A pair (c1, c2, r1, r2, a, b, c, d) is
    the block with V[r1][c1] = a, V[r1][c2] = b, V[r2][c1] = c and
    V[r2][c2] = d, c1 < c2; a single (c, r, w) is V[r][c] = w = +-5.  Every
    entry lies in exactly one block, and blocks share no row.
    """
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    rows: list[list[int]] = [[] for _ in range(n)]
    for r, c, w in entries:
        cols[c].append((r, w))
        rows[r].append(c)
    pairs: list[Pair] = []
    singles: list[Single] = []
    paired = [False] * n
    for c1, col in enumerate(cols):
        if len(col) == 1:
            ((r, w),) = col
            if w * w != 25 or len(rows[r]) != 1:
                return None
            singles.append((c1, r, w))
        elif len(col) == 2:
            if paired[c1]:
                continue
            (r1, a), (r2, c) = col
            row1, row2 = rows[r1], rows[r2]
            if a * a + c * c != 25 or len(row1) != 2 or len(row2) != 2:
                return None
            c2 = row1[0] if row1[1] == c1 else row1[1]
            col2 = cols[c2]
            if c2 not in row2 or len(col2) != 2:
                return None
            (s1, b), (_, d) = col2
            if s1 != r1:
                b, d = d, b
            if a * b + c * d != 0 or b * b + d * d != 25:
                return None
            paired[c2] = True
            pairs.append((c1, c2, r1, r2, a, b, c, d))
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
    at distance at most d are a prefix of each returned tuple.  The walk
    stops early once no block is left to enter.
    """
    ordered: tuple[list, list] = ([], [])
    counts: list[tuple[int, int]] = []
    taken: set[int] = set()
    layer = [seed]
    for _ in range(depth):
        following = []
        for i in layer:
            if i not in taken:
                block = block_of[i]
                single = len(block) == 3
                width = 1 if single else 2
                ins, outs = block[:width], block[width : 2 * width]
                if not forward:
                    ins, outs = outs, ins
                taken.update(ins)
                ordered[single].append(block)
                following.extend(outs)
        counts.append((len(ordered[0]), len(ordered[1])))
        layer = [i for i in following if i not in taken]
        if not layer:
            break
    return (tuple(ordered[0]), tuple(ordered[1])), counts


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

        Each walk is (blocks, counts), see _breadth_first.  Computed on the
        first run that steps, never by validation.
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
    """Build and validate a system from already-typed fields, entries in any order."""
    ordered = tuple(sorted((int(r), int(c), int(w)) for r, c, w in entries))
    return _checked_system(n_configs, ordered, start, accept, t, DEFAULT_MAX_CONFIGS)


def _checked_system(
    n_configs: int, ordered: tuple, start: int, accept: int, t: int, max_configs: int
) -> UnitarySystem:
    """Validate int fields and int entries sorted by (row, col)."""
    if n_configs < 1:
        raise StructuralError("n_configs must be positive")
    if n_configs > max_configs:
        raise ModelError(f"{n_configs} configurations exceed the limit of {max_configs}")
    if not 0 <= start < n_configs:
        raise StructuralError(f"start index {start} out of range")
    if not 0 <= accept < n_configs:
        raise StructuralError(f"accept index {accept} out of range")
    if t < 0:
        raise StructuralError("running time must be nonnegative")
    return UnitarySystem(n_configs, ordered, start, accept, t, checked_blocks(n_configs, ordered))


def checked_blocks(n: int, entries: Sequence[Entry]) -> Blocks:
    """column_blocks of the entries, or the refusal of the first fault.

    Every matrix is checked here: no (row, col) twice, the range of each
    entry, its numerator, then the first column pair whose inner product is
    not 25 * delta.
    """
    if len({(r, c) for r, c, _ in entries}) != len(entries):
        raise StructuralError("duplicate matrix entries")
    for r, c, w in entries:
        if not (0 <= r < n and 0 <= c < n):
            raise StructuralError(f"entry ({r},{c}) out of range")
        if w not in ALLOWED_NUMERATORS or w == 0:
            raise AmplitudeError(f"numerator {w} at ({r},{c}) not in the allowed set")
    blocks = column_blocks(n, entries)
    if blocks is None:
        i, j, got, want = _gram_first_violation(n, entries)
        raise ModelError(
            f"not norm-preserving: inner product of columns ({i},{j}) is {got}, "
            f"expected {want}"
        )
    return blocks


def build_system(description: Mapping, max_configs: int = DEFAULT_MAX_CONFIGS) -> UnitarySystem:
    """Parse a machine-file dictionary into a validated UnitarySystem.

    The canonical file form has entries sorted by (row, col) with no
    duplicates and no explicit zeros; anything else is a ParseError.
    """
    required = {"n_configs", "entries", "start", "accept", "t"}
    if not isinstance(description, Mapping):
        raise ParseError("machine description must be a JSON object")
    missing = required - description.keys()
    if missing:
        raise ParseError(f"missing fields: {sorted(missing)}")
    extra = description.keys() - required
    if extra:
        raise ParseError(f"unknown fields: {sorted(extra)}")
    for field in ("n_configs", "start", "accept", "t"):
        if type(description[field]) is not int:
            raise ParseError(f"field {field!r} must be an integer")
    raw = description["entries"]
    if not isinstance(raw, list):
        raise ParseError("entries must be an array of [row, col, numerator]")
    entries: list[Entry] = []
    for item in raw:
        try:
            r, c, w = item
        except (TypeError, ValueError):
            raise ParseError(f"bad entry {item!r}") from None
        if type(r) is not int or type(c) is not int or type(w) is not int:
            raise ParseError(f"bad entry {item!r}")
        if w == 0:
            raise ParseError("explicit zero entries must be omitted")
        entries.append((r, c, w))
    keys = [(r, c) for r, c, _ in entries]
    if keys != sorted(keys):
        raise ParseError("entries must be sorted by (row, col)")
    if len(set(keys)) != len(keys):
        raise ParseError("duplicate entries")
    return _checked_system(
        description["n_configs"],
        tuple(entries),
        description["start"],
        description["accept"],
        description["t"],
        max_configs,
    )


def load_json_object(path: str) -> dict:
    """Read a JSON file whose top-level value must be an object.

    Unreadable files, undecodable or too deeply nested contents and any
    other top-level value are ParseErrors naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be a JSON object")
    return doc


def load_system(path: str, max_configs: int = DEFAULT_MAX_CONFIGS) -> UnitarySystem:
    """Read a machine file from disk."""
    return build_system(load_json_object(path), max_configs=max_configs)


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
