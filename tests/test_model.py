import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsim.corpus import unitary_corpus
from gapsim.errors import (
    AmplitudeError,
    GapsimError,
    ModelError,
    ParseError,
    ResourceError,
    StructuralError,
)
from gapsim.model import (
    ALLOWED_NUMERATORS,
    MachineFamily,
    _gram_first_violation,
    build_system,
    checked_blocks,
    column_blocks,
    make_system,
)

from drafts import BLOCKS

ROTATION_DOC = {
    "n_configs": 2,
    "entries": [[0, 0, 3], [0, 1, 4], [1, 0, 4], [1, 1, -3]],
    "start": 0,
    "accept": 1,
    "t": 1,
}


def test_reflection_block_passes():
    system = make_system(2, [(0, 0, 3), (0, 1, 4), (1, 0, 4), (1, 1, -3)], 0, 1, 1)
    assert system.blocks == (((0, 1, 0, 1, 3, 4, 4, -3),), ())


@pytest.mark.parametrize("n", [1, 2, 5])
def test_scaled_identity_passes(n):
    system = make_system(n, [(i, i, 5) for i in range(n)], 0, 0, 1)
    assert system.blocks == ((), tuple((i, i, 5) for i in range(n)))


def test_symmetric_failure_reports_location():
    with pytest.raises(
        ModelError,
        match=r"^not norm-preserving: inner product of columns \(0,1\) is 24, expected 0$",
    ):
        make_system(2, [(0, 0, 3), (0, 1, 4), (1, 0, 4), (1, 1, 3)], 0, 1, 1)


def test_zero_column_is_reported_on_diagonal():
    with pytest.raises(
        ModelError,
        match=r"^not norm-preserving: inner product of columns \(1,1\) is 0, expected 25$",
    ):
        make_system(2, [(0, 0, 5)], 0, 1, 1)


def test_repeated_entry_is_refused():
    with pytest.raises(StructuralError, match="^duplicate matrix entries$"):
        make_system(1, [(0, 0, 3), (0, 0, -3), (0, 0, 5)], 0, 0, 1)  # 9 - 9 + 25


def test_build_rotation_file():
    system = build_system(ROTATION_DOC)
    assert system.n_configs == 2
    assert system.start == 0 and system.accept == 1 and system.t_bound == 1


def test_build_is_deterministic():
    assert build_system(ROTATION_DOC) == build_system(ROTATION_DOC)


def test_disallowed_numerator():
    doc = dict(ROTATION_DOC, entries=[[0, 0, 2], [0, 1, 4], [1, 0, 4], [1, 1, -3]])
    with pytest.raises(AmplitudeError):
        build_system(doc)


def test_scaled_identity_file():
    doc = {
        "n_configs": 2,
        "entries": [[0, 0, 5], [1, 1, 5]],
        "start": 0,
        "accept": 0,
        "t": 2,
    }
    assert build_system(doc).n_configs == 2


def test_unitarity_failure_is_model_error():
    doc = dict(ROTATION_DOC, entries=[[0, 0, 3], [0, 1, 4], [1, 0, 4], [1, 1, 3]])
    with pytest.raises(ModelError):
        build_system(doc)


# each malformed file with its refusal; the later cases have several faults
NON_CANONICAL = [
    (
        lambda d: d.update(entries=[[0, 1, 4], [0, 0, 3], [1, 0, 4], [1, 1, -3]]),
        "entries must be sorted by (row, col)",
    ),
    (lambda d: d.update(entries=d["entries"] + [[1, 1, -3]]), "duplicate entries"),
    (
        lambda d: d.update(entries=[[0, 0, 3], [0, 1, 4], [1, 0, 4], [1, 1, 0]]),
        "explicit zero entries must be omitted",
    ),
    (lambda d: d.update(t="3"), "field 't' must be an integer"),
    (lambda d: d.update(extra=1), "unknown field 'extra'"),
    (lambda d: d.pop("start"), "missing field 'start' (an integer)"),
    (lambda d: d.update(n_configs=True), "field 'n_configs' must be an integer"),
    (lambda d: d["entries"][0].__setitem__(2, True), "bad entry [0, 0, True]"),
    (lambda d: d["entries"][0].__setitem__(2, 3.0), "bad entry [0, 0, 3.0]"),
    (lambda d: d["entries"][1].__setitem__(1, "1"), "bad entry [0, '1', 4]"),
    (lambda d: d["entries"].__setitem__(0, [0, 0]), "bad entry [0, 0]"),
    (
        lambda d: d["entries"].__setitem__(0, {"row": 0, "col": 0, "numerator": 3}),
        "bad entry {'row': 0, 'col': 0, 'numerator': 3}",
    ),
    (lambda d: d["entries"].__setitem__(0, "033"), "bad entry '033'"),
    (lambda d: d["entries"].__setitem__(0, 3), "bad entry 3"),
    # several faults: the first check in the order of build_system names one
    (
        lambda d: d.update(entries=[[0, 1, 4], [0, 0, 3], [0, 0, 3], [1, 0, 4], [1, 1, -3]]),
        "entries must be sorted by (row, col)",
    ),
    (
        lambda d: d.update(entries=[[0, 0, 3], [0, 0, 3], [0, 1, 4], [1, 1, -3], [1, 0, 4]]),
        "entries must be sorted by (row, col)",
    ),
    (
        lambda d: d.update(entries=[[0, 0, 3], [0, 0, 3], [0, 1, 4], [1, 0, 4], [1, 1, 0]]),
        "explicit zero entries must be omitted",
    ),
    (
        lambda d: d.update(entries=[[0, 1, 4], [0, 0, 3], [1, 0, 4], [1, 1, "x"]]),
        "bad entry [1, 1, 'x']",
    ),
    (
        lambda d: d.update(n_configs=0, entries=[[0, 0, 3], [0, 0, 3]]),
        "duplicate entries",
    ),
]


@pytest.mark.parametrize("mangle", [mangle for mangle, _ in NON_CANONICAL])
def test_non_canonical_files_rejected(mangle):
    doc = {k: (list(v) if isinstance(v, list) else v) for k, v in ROTATION_DOC.items()}
    doc["entries"] = [list(e) for e in ROTATION_DOC["entries"]]
    mangle(doc)
    with pytest.raises(ParseError) as info:
        build_system(doc)
    assert str(info.value) == dict(NON_CANONICAL)[mangle]


FIRST_FAULTS = [
    # a bad numerator early and an out-of-range entry later: the earlier entry is named
    (
        [(0, 0, 2), (0, 1, 4), (1, 0, 4), (1, 1, -3), (1, 2, 5)],
        AmplitudeError("numerator 2 at (0,0) not in the allowed set"),
    ),
    (
        [(-1, 0, 5), (0, 0, 2), (0, 1, 4), (1, 0, 4), (1, 1, -3)],
        StructuralError("entry (-1,0) out of range"),
    ),
    (
        [(0, 0, 3), (0, 1, 4), (1, 0, 4), (1, 1, 6), (2, 1, 5)],
        AmplitudeError("numerator 6 at (1,1) not in the allowed set"),
    ),
    # an explicit zero is a numerator fault, though its column's squared norm is 25
    (
        [(0, 0, 0), (0, 1, 5), (1, 0, 5), (1, 1, 0)],
        AmplitudeError("numerator 0 at (0,0) not in the allowed set"),
    ),
    # a duplicate is named before any range or numerator fault, wherever it lies
    (
        [(0, 0, 7), (0, 1, 4), (1, 0, 4), (1, 1, -3), (9, 9, 5), (1, 1, -3)],
        StructuralError("duplicate matrix entries"),
    ),
    # a fault in an entry is named before a column pair
    (
        [(0, 0, 3), (0, 1, 4), (1, 0, 4), (1, 1, 3), (1, 1, 2)],
        StructuralError("duplicate matrix entries"),
    ),
    (
        [(0, 0, 3), (0, 1, 4), (1, 0, 4), (1, 1, 3), (2, 0, 5)],
        StructuralError("entry (2,0) out of range"),
    ),
]


@pytest.mark.parametrize("entries,refusal", FIRST_FAULTS)
def test_first_fault_is_named(entries, refusal):
    with pytest.raises(type(refusal)) as info:
        checked_blocks(2, entries)
    assert str(info.value) == str(refusal)


def test_column_index_n_is_out_of_range():
    entries = [(0, 0, 5), (1, 2, 5)]
    for check in (lambda: checked_blocks(2, entries), lambda: make_system(2, entries, 0, 0, 1)):
        with pytest.raises(StructuralError) as info:
            check()
        assert str(info.value) == "entry (1,2) out of range"


def test_cancelling_duplicate_in_column_major_order_is_refused():
    # column 0 holds (0, 0) three times, 3 + 4 - 4: its squared norm is 25 and
    # the Gram check alone passes
    entries = [(0, 0, 3), (0, 0, 4), (0, 0, -4), (1, 0, 4), (0, 1, 4), (1, 1, -3)]
    with pytest.raises(StructuralError) as info:
        checked_blocks(2, entries)
    assert str(info.value) == "duplicate matrix entries"


def test_config_cap():
    entries = [[i, i, 5] for i in range(10)]
    doc = {"n_configs": 10, "entries": entries, "start": 0, "accept": 0, "t": 1}
    refusal = r"^n_configs 10 exceeds the cap 9 \(raise --max-configs\)$"
    with pytest.raises(ResourceError, match=refusal):
        build_system(doc, max_configs=9)


corpus_systems = unitary_corpus()


@pytest.mark.parametrize("name,system", corpus_systems, ids=[n for n, _ in corpus_systems])
def test_corpus_validates(name, system):
    # reconstruction re-runs the orthogonality check
    assert build_system(system.to_file_dict()) == system


def _full_gram_first_violation(n, entries):
    # reference: the whole Gram matrix V^T V as a dict, then its smallest bad (i, j)
    rows = {}
    for r, c, w in entries:
        rows.setdefault(r, []).append((c, w))
    gram = {}
    for items in rows.values():
        for ci, wi in items:
            for cj, wj in items:
                if ci <= cj:
                    gram[(ci, cj)] = gram.get((ci, cj), 0) + wi * wj
    bad = []
    for i in range(n):
        got = gram.pop((i, i), 0)
        if got != 25:
            bad.append((i, i, got, 25))
    bad.extend((i, j, got, 0) for (i, j), got in gram.items() if got != 0)
    return min(bad) if bad else None


def _dense_gram_is_scaled_identity(n, entries):
    # independent oracle: naive dense V^T V against 25 I
    dense = [[0] * n for _ in range(n)]
    for r, c, w in entries:
        dense[r][c] = w
    for i in range(n):
        for j in range(n):
            got = sum(dense[k][i] * dense[k][j] for k in range(n))
            if got != (25 if i == j else 0):
                return False
    return True


@settings(max_examples=50, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(corpus_systems) - 1),
    entry=st.integers(min_value=0, max_value=10**6),
    replacement=st.sampled_from(sorted(ALLOWED_NUMERATORS)),
)
def test_single_entry_perturbations_rejected(index, entry, replacement):
    system = corpus_systems[index][1]
    entries = list(system.entries)
    slot = entry % len(entries)
    r, c, w = entries[slot]
    if replacement in (w, 0):
        return
    entries[slot] = (r, c, replacement)
    if _dense_gram_is_scaled_identity(system.n_configs, entries):
        make_system(system.n_configs, entries, system.start, system.accept, system.t_bound)
    else:
        with pytest.raises(ModelError):
            make_system(
                system.n_configs, entries, system.start, system.accept, system.t_bound
            )


NUMERATORS = sorted(ALLOWED_NUMERATORS)


@st.composite
def near_block_matrices(draw):
    """(n, entries in shuffled order) for n <= 6, then 0-3 overwrites.

    Half start from a valid block matrix, half from columns of squared norm
    25 drawn one by one, whose rows may collide or stay empty.  One in four
    then repeats an entry's (row, col) with another numerator.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    matrix = [[0] * n for _ in range(n)]
    index = st.integers(min_value=0, max_value=n - 1)
    if draw(st.booleans()):
        rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        k = 0
        while k < n:
            if k + 1 < n and draw(st.booleans()):
                a, b, c, d = draw(st.sampled_from(BLOCKS))
                (r1, r2), (c1, c2) = rows[k : k + 2], cols[k : k + 2]
                matrix[r1][c1], matrix[r1][c2], matrix[r2][c1], matrix[r2][c2] = a, b, c, d
                k += 2
            else:
                matrix[rows[k]][cols[k]] = draw(st.sampled_from((5, -5)))
                k += 1
    else:
        for c in range(n):
            r1, r2 = draw(index), draw(index)
            top, bottom = draw(st.sampled_from(BLOCKS))[::2]  # one column of a block
            if r1 == r2 or not (top and bottom):
                matrix[r1][c] = draw(st.sampled_from((5, -5)))
            else:
                matrix[r1][c], matrix[r2][c] = top, bottom
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        matrix[draw(index)][draw(index)] = draw(st.sampled_from(NUMERATORS))
    entries = [(r, c, w) for r, row in enumerate(matrix) for c, w in enumerate(row) if w]
    if entries and draw(st.integers(min_value=0, max_value=3)) == 0:
        r, c, w = draw(st.sampled_from(entries))
        entries.append((r, c, draw(st.sampled_from([v for v in NUMERATORS if v not in (0, w)]))))
    return n, draw(st.permutations(entries))


@settings(max_examples=400, deadline=None)
@given(case=near_block_matrices())
# a 3-cycle of 3/4 columns: column 2 meets column 1's first row but not its second
@example(case=(3, [(0, 1, -4), (0, 2, -3), (1, 0, -4), (1, 1, 3), (2, 0, -3), (2, 2, -4)]))
# two pairs share row 3 and row 0 stays empty
@example(
    case=(
        4,
        [(1, 0, -4), (1, 2, -3), (2, 1, 4), (2, 3, 3), (3, 0, -3), (3, 1, -3), (3, 2, 4), (3, 3, 4)],
    )
)
# row 0 holds three entries, and column 0 lists it first
@example(case=(3, [(0, 0, 3), (1, 0, 4), (0, 1, 4), (1, 1, -3), (0, 2, 5)]))
def test_column_blocks_exactly_when_gram_is_scaled_identity(case):
    n, entries = case
    blocks = column_blocks(n, entries)
    if len({(r, c) for r, c, _ in entries}) != len(entries):
        assert blocks is None
        with pytest.raises(StructuralError, match="^duplicate matrix entries$"):
            make_system(n, entries, 0, 0, 1)
        return
    violation = _full_gram_first_violation(n, entries)
    assert (blocks is None) == (violation is not None)
    if blocks is not None:
        pairs, singles = blocks
        held = [(r, c, w) for c, r, w in singles]
        for c1, c2, r1, r2, a, b, c, d in pairs:
            assert c1 < c2
            held += [(r1, c1, a), (r1, c2, b), (r2, c1, c), (r2, c2, d)]
        assert sorted(held) == sorted(entries)  # every entry exactly once
        assert make_system(n, entries, 0, 0, 1).blocks == column_blocks(n, sorted(entries))
    else:
        i, j, got, want = violation
        with pytest.raises(ModelError) as info:
            make_system(n, entries, 0, 0, 1)
        assert str(info.value) == (
            f"not norm-preserving: inner product of columns ({i},{j}) is {got}, "
            f"expected {want}"
        )


@st.composite
def in_range_entries(draw):
    """(n, entries) for n <= 6: any cells, any numerators, repeats allowed."""
    n = draw(st.integers(min_value=1, max_value=6))
    index = st.integers(min_value=0, max_value=n - 1)
    entry = st.tuples(index, index, st.sampled_from(NUMERATORS + [-2, 1, 2, 6]))
    return n, draw(st.lists(entry, max_size=3 * n))


@settings(max_examples=400, deadline=None)
@given(case=st.one_of(near_block_matrices(), in_range_entries()))
def test_gram_walk_names_the_full_grams_first_violation(case):
    n, entries = case
    assert _gram_first_violation(n, entries) == _full_gram_first_violation(n, entries)


@settings(max_examples=300, deadline=None)
@given(case=near_block_matrices())
def test_checked_blocks_is_the_same_in_every_entry_order(case):
    # the drawn order, the sorted order and column-major order; a pair's r1
    # is the row a column lists first, so rows are put in order to compare
    n, entries = case
    outcomes = []
    for ordered in (entries, sorted(entries), sorted(entries, key=lambda e: (e[1], e[0], e[2]))):
        try:
            pairs, singles = checked_blocks(n, ordered)
        except GapsimError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            pairs = [
                (c1, c2, r1, r2, a, b, c, d) if r1 < r2 else (c1, c2, r2, r1, c, d, a, b)
                for c1, c2, r1, r2, a, b, c, d in pairs
            ]
            outcomes.append((pairs, singles))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_family_checks_time_bound():
    from gapsim.corpus import zero_error_family

    family, _ = zero_error_family()
    assert family.system("01", 5).t_bound == 3
    bad = MachineFamily(family.builder, (4,))
    with pytest.raises(ModelError):
        bad.system("01", 5)


def test_family_rejects_short_padding():
    from gapsim.corpus import zero_error_family

    family, _ = zero_error_family()
    with pytest.raises(StructuralError):
        family.system("0110", 2)
