import itertools
from pathlib import Path

import pytest

from gapsim import corpus
from gapsim.corpus import Draft, write_corpus
from gapsim.errors import ModelError, StructuralError
from gapsim.gapp import exp_sum, poly_product, tree_to_json
from gapsim.strings import pair
from gapsim.trees import gap, unfolded_leaves

SHIPPED = Path(__file__).resolve().parents[1] / "corpus"


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_written_corpus_matches_shipped_files(tmp_path):
    write_corpus(str(tmp_path))
    written, shipped = _files(tmp_path), _files(SHIPPED)
    assert sorted(written) == sorted(shipped)
    for name, data in written.items():
        assert data == shipped[name], name


def test_main_writes_the_corpus_and_prints_each_path(tmp_path, capsys):
    assert corpus.main([str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 28  # 22 machines, 5 trees and 1 lowness bundle
    assert sorted(printed) == sorted(_files(tmp_path))


def test_main_without_one_directory_prints_its_usage(capsys):
    for argv in ([], ["a", "b"]):
        assert corpus.main(argv) == 2
        assert capsys.readouterr() == ("", "usage: python -m gapsim.corpus OUTPUT_DIR\n")


def _two_configs() -> tuple[Draft, int, int]:
    d = Draft()
    return d, d.cfg("a"), d.cfg("b")


def test_draft_refuses_a_column_wired_twice():
    d, a, b = _two_configs()
    d.route(a, b)
    with pytest.raises(StructuralError, match="^column 0 wired twice$"):
        d.route(a, a)


def test_draft_refuses_a_config_that_both_swaps_and_flips_sign():
    d, a, b = _two_configs()
    ra, rb = d.cfg("ra"), d.cfg("rb")
    d.cond_swap(a, b, ra, rb, "0", 0)
    d.cond_phase(a, "1", 1)
    with pytest.raises(StructuralError, match="^config 0 cannot both swap and flip sign$"):
        d.query_system(a, ra, 2, 1)


def test_plain_system_refuses_query_slots():
    d, a, b = _two_configs()
    d.route(a, b)
    d.cond_phase(b, "0", 0)
    with pytest.raises(StructuralError, match="^query slots need query_system$"):
        d.system(a, b, 1)


def test_draft_with_a_row_wired_twice_is_refused_by_the_matrix_check():
    # columns a and b both route to c: one unwired column (c) for two unused rows (a, b)
    d, a, b = _two_configs()
    c = d.cfg("c")
    d.route(a, c)
    d.route(b, c)
    with pytest.raises(
        ModelError, match=r"^not norm-preserving: inner product of columns \(0,1\) is 25, expected 0$"
    ):
        d.system(a, c, 1)


def test_equal_signed_trees_are_one_object():
    for value in range(-5, 6):
        for noise in range(3):
            assert corpus._signed_tree(value, noise) is corpus._signed_tree(value, noise)


def test_lowness_finishes_and_gap_machines_share_signed_trees():
    # The cache key is exactly (value, noise), however the call is written.
    named = {name: instance for name, instance, _ in corpus.lowness_corpus()}
    from_finish = named["no_query"].machine.finish("00", ())  # even parity: gap 2
    from_machine = corpus._machine(lambda _x: 2).evaluator("")  # length 0: noise 0
    assert from_finish is from_machine is corpus._signed_tree(2, 0)


def _closures() -> dict:
    """Gap-tree JSON, gap and leaves of both combinators over every corpus machine, q <= 3."""
    built = {}
    for name, machine in corpus.gap_machine_corpus():
        for combinator in (exp_sum, poly_product):
            for q in range(4):
                for x in ("", "1"):
                    tree = combinator(machine, (q,)).evaluator(x)
                    leaves = unfolded_leaves(tree)
                    built[name, combinator.__name__, q, x] = (tree_to_json(tree), gap(tree), leaves)
    return built


def test_shared_signed_trees_build_the_same_closures(monkeypatch):
    shared = _closures()
    fresh = corpus._signed_tree.__wrapped__  # builds a new tree on every call
    monkeypatch.setattr(corpus, "_signed_tree", fresh)
    assert fresh(3, 1) is not fresh(3, 1)
    assert _closures() == shared


def test_pair_shape_reads_pair_codes_and_only_decode_errors_as_minus_one(monkeypatch):
    pair_shape = dict(corpus.gap_machine_corpus())["pair_shape"]
    assert gap(pair_shape.evaluator("1")) == -1  # "1" numbers 3, which pair never makes
    assert gap(pair_shape.evaluator("00111")) == 3  # <"01", "1">: 2 - 1 + 2

    def broken(_z):
        raise RuntimeError("unpair is broken")

    monkeypatch.setattr(corpus, "unpair", broken)
    with pytest.raises(RuntimeError, match="unpair is broken"):
        pair_shape.evaluator("00111")


IDENTITY_1 = {"n_configs": 1, "entries": [[0, 0, 5]], "start": 0, "accept": 0}
IDENTITY_2 = {"n_configs": 2, "entries": [[0, 0, 5], [1, 1, 5]], "start": 0, "accept": 1}
ROTATE = {"entries": [[0, 0, 3], [0, 1, -4], [1, 0, 4], [1, 1, 3]]}
REFLECT = {"entries": [[0, 0, 3], [0, 1, 4], [1, 0, 4], [1, 1, -3]]}


@pytest.mark.parametrize(
    "make, t, member",
    [
        (corpus.zero_error_family, 3, IDENTITY_1),
        (corpus.amplified_family, 22, {**IDENTITY_2, **ROTATE}),
        (corpus.leaky_family, 1, {**IDENTITY_2, **REFLECT}),
    ],
)
def test_parity_families_pick_the_member_system_or_reject(make, t, member):
    family, language = make()
    assert family.t_poly == (t,)
    for x, system in (("", member), ("11", member), ("1", IDENTITY_2)):
        assert language(x) == (system is member)
        for m in (len(x), len(x) + 3):
            assert family.system(x, m).to_file_dict() == {**system, "t": t}


def test_split_phase_systems_query_their_arms_at_step_one():
    split = corpus.phase_split_system("00")
    assert split.query_slots == {1: {2: "00"}}
    assert split.alt_columns == {2: ((4, -3), (5, 4))}
    double = corpus.double_phase_system("01", "10")
    assert double.query_slots == {1: {2: "01", 3: "10"}}
    assert double.alt_columns == {2: ((4, -3), (5, -4)), 3: ((4, -4), (5, 3))}


INPUTS = ("00", "01", "10", "11")


def _asks_input(no, yes):
    return {x: ({"": x}, {"0": no, "1": yes}) for x in INPUTS}


def _members(*oracle):
    return {y: 1023 if y in oracle else 1 for y in INPUTS}


# name: (query_count, oracle, g(2), q(2), approximator gap at <y, "00">,
#        {input: ({answer prefix: query}, {full answers: finish gap})})
LOWNESS_SHAPES = {
    **{
        f"self_query_{i}": (1, oracle, 1024, 8, _members(*oracle), _asks_input(-1, 1))
        for i, oracle in enumerate([["00"], ["01", "10"], list(INPUTS), [], ["01", "11"]])
    },
    **{
        f"skewed_{i}": (1, oracle, 1024, 8, _members(*oracle), _asks_input(-2, 3))
        for i, oracle in enumerate([["00"], ["01", "10"], list(INPUTS)])
    },
    "no_query": (
        0, ["00"], 1024, 8, _members("00"),
        {"00": ({}, {"": 2}), "01": ({}, {"": -2}), "10": ({}, {"": -2}), "11": ({}, {"": 2})},
    ),
    "two_query": (
        2, ["00", "11"], 1024, 8, _members("00", "11"),
        {
            x: ({"": x, "0": "01", "1": "11"}, {"00": -3, "01": 2, "10": -1, "11": 3})
            for x in INPUTS
        },
    ),
    "fixed_query": (
        1, ["10"], 1024, 8, _members("10"),
        {x: ({"": "10"}, {"0": -3, "1": 2}) for x in INPUTS},
    ),
}


def _bits(answers) -> str:
    return "".join("1" if a else "0" for a in answers)


def _lowness_shape(instance, inputs):
    machine, approximator = instance.machine, instance.approximator
    k = machine.query_count
    rows = {}
    for x in inputs:
        prefixes = [p for n in range(k) for p in itertools.product((False, True), repeat=n)]
        full = itertools.product((False, True), repeat=k)
        rows[x] = (
            {_bits(p): machine.next_query(x, p) for p in prefixes},
            {_bits(a): gap(machine.finish(x, a)) for a in full},
        )
    return (
        k,
        sorted(instance.oracle),
        approximator.g_value(2),
        approximator.q_value(2),
        {y: gap(approximator.f.evaluator(pair(y, "00"))) for y in INPUTS},
        rows,
    )


def test_lowness_instances_keep_their_queries_gaps_and_certificates():
    named = corpus.lowness_corpus()
    assert [name for name, _, _ in named] == list(LOWNESS_SHAPES)
    for name, instance, inputs in named:
        assert inputs == INPUTS, name
        assert _lowness_shape(instance, inputs) == LOWNESS_SHAPES[name], name


def test_adversarial_lowness_instance_keeps_its_shape():
    instance, inputs, fraction, no_gap = corpus.adversarial_lowness_search()
    assert (inputs, fraction, no_gap) == (("00",), 66, -2)
    assert _lowness_shape(instance, inputs) == (
        1, ["00"], 1024, 1, {"00": 682, "01": 1, "10": 1, "11": 1},
        {"00": ({"": "00"}, {"0": -2, "1": 1})},
    )
