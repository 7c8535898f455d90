import argparse
import importlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsim import gapp
from gapsim.cli import _emit, main
from gapsim.corpus import BLOCK_REFLECT, flip_stability_corpus, rotation_system, write_corpus
from gapsim.errors import PromiseViolation
from gapsim.gapp import GAP_MACHINE_FILES, MAX_TREE_DEPTH
from gapsim.lowness import BUNDLE_FILE
from gapsim.model import MACHINE_FILE

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
BUNDLE = CORPUS / "lowness" / "fixed_query.json"
PARITY_TREE = CORPUS / "trees" / "parity_step.json"
# a system reference that resolves from any directory
REFLECT_REFERENCE = {"kind": "system", "path": str(CORPUS / "machines" / "reflect_t1.json")}


@pytest.fixture()
def rotation_file(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(rotation_system(BLOCK_REFLECT, 0, 1, 1).to_file_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_rotation(rotation_file, capsys):
    code, out, _ = run(capsys, "simulate", rotation_file)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["numerator"] == "16"
    assert report["results"]["log5_denominator"] == "2"
    assert report["results"]["probability"] == {"den": "25", "num": "16"}
    assert report["pass_fail"] == {"float_agrees": True, "path_sum_agrees": True}
    assert rotation_file in report["inputs"]


def test_simulate_emits_float_at_12_digits(rotation_file, capsys):
    _, out, _ = run(capsys, "simulate", rotation_file)
    assert json.loads(out)["results"]["float_check"] == "0.64"


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "simulate", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_non_canonical_file_exits_2(tmp_path, capsys):
    doc = rotation_system(BLOCK_REFLECT, 0, 1, 1).to_file_dict()
    doc["entries"] = list(reversed(doc["entries"]))
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "simulate", str(path))
    assert code == 2
    assert "sorted" in err


def test_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "foo")
    assert code == 2
    assert "unknown suite" in err


def test_unknown_suite_refusal_is_one_error_line(capsys):
    assert run(capsys, "verify", "nope") == (
        2,
        "",
        "error: unknown suite 'nope'; choose from unitarity, closure, gaplem, awpp, lwpp, "
        "lowness, bbbv, rerelativize\n",
    )


def test_verify_closure_passes(capsys):
    code, out, _ = run(capsys, "verify", "closure")
    assert code == 0
    report = json.loads(out)
    assert report["pass_fail"] == {"closure": True}
    assert report["results"]["mismatches"] == []


def test_verify_unitarity_on_written_corpus(tmp_path, capsys):
    write_corpus(str(tmp_path))
    code, out, _ = run(capsys, "verify", "unitarity", "--corpus", str(tmp_path))
    assert code == 0
    assert json.loads(out)["pass_fail"]["unitarity"] is True


def test_reports_are_byte_identical(rotation_file, capsys):
    _, first, _ = run(capsys, "simulate", rotation_file)
    _, second, _ = run(capsys, "simulate", rotation_file)
    assert first == second


def test_json_out_writes_the_same_report(rotation_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    _, out, _ = run(capsys, "simulate", rotation_file, "--json-out", str(target))
    assert target.read_text() == out


def test_unwritable_json_out_exits_2(tmp_path, capsys):
    machine = str(CORPUS / "machines" / "reflect_t1.json")
    target = str(tmp_path / "no" / "such" / "dir" / "x.json")
    code, out, err = run(capsys, "simulate", machine, "--json-out", target)
    assert code == 2 and out == ""
    assert err == f"error: {target}: cannot write (No such file or directory)\n"


def test_parser_is_built_once_per_process(rotation_file, monkeypatch, capsys):
    run(capsys, "verify", "lwpp")  # warm-up: the first call in the process may build it
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    run(capsys, "verify", "lwpp")
    run(capsys, "simulate", rotation_file)
    assert built == []


def test_usage_error_leaves_the_parser_unchanged(capsys):
    _, before, _ = run(capsys, "verify", "lwpp")
    with pytest.raises(SystemExit) as exc:
        main(["bbbv"])
    assert exc.value.code == 2
    capsys.readouterr()
    _, after, _ = run(capsys, "verify", "lwpp")
    assert after == before


def test_json_out_is_not_carried_to_the_next_call(rotation_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    run(capsys, "simulate", rotation_file, "--json-out", str(target))
    target.unlink()
    code, out, _ = run(capsys, "simulate", rotation_file)
    assert code == 0 and out
    assert not target.exists()


def test_gap_eval_tree_file(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"kind": "tree", "tree": ["accept", "accept", "reject"]}))
    code, out, _ = run(capsys, "gap-eval", str(path), "--input", "01")
    assert code == 0
    assert json.loads(out)["results"]["gap"] == "1"


def test_lowness_bundle(tmp_path, capsys):
    write_corpus(str(tmp_path))
    bundle = tmp_path / "lowness" / "fixed_query.json"
    code, out, _ = run(capsys, "lowness", "--bundle", str(bundle))
    assert code == 0
    report = json.loads(out)
    assert report["pass_fail"]["signs"] is True
    assert report["results"]["instance_valid"] is True


def test_verify_bbbv_checks_each_system_at_both_epsilons(capsys):
    code, out, _ = run(capsys, "verify", "bbbv")
    assert code == 0
    epsilons = {name: set() for name, _, _ in flip_stability_corpus()}
    for row in json.loads(out)["results"]["rows"]:
        epsilons[row["system"]].add(row["epsilon"])
    assert epsilons == {name: {"1/7", "1/10"} for name in epsilons}


def test_bbbv_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bbbv"])
    assert exc.value.code == 2


# Runs main the way the `gapsim` script does, then prints the exit code and
# the gapsim modules that the command loaded.
LOADED = """
import contextlib, io, json, sys
from gapsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "gapsim")]))
"""


def _loaded(*argv):
    done = subprocess.run(
        [sys.executable, "-c", LOADED, *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return {name.removeprefix("gapsim.") for name in modules}


def test_simulate_loads_only_the_model_and_evolve_layers():
    loaded = _loaded("simulate", "corpus/machines/reflect_t1.json")
    assert loaded == {"gapsim", "cli", "errors", "evolve", "model"}


def test_gap_eval_loads_no_suites_corpus_oracle_or_lowness():
    loaded = _loaded("gap-eval", "corpus/trees/parity_step.json", "--input", "01")
    assert loaded & {"suites", "corpus", "oracle", "lowness"} == set()


def test_lowness_loads_no_suites_corpus_or_oracle():
    loaded = _loaded("lowness", "--bundle", "corpus/lowness/fixed_query.json")
    assert loaded & {"suites", "corpus", "oracle"} == set()


def _bundle_with(tmp_path, **fields):
    doc = json.loads(BUNDLE.read_text())
    doc["certificate"]["g_pow2"] = fields.pop("g_pow2", doc["certificate"]["g_pow2"])
    doc.update(fields)
    return _file(tmp_path, json.dumps(doc))


def test_lowness_bundle_with_huge_tally(tmp_path, capsys):
    code, out, _ = run(capsys, *_lowness(tmp_path, g_pow2=[200]))
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    g = 1 << 200  # the member query "00" has f = g - 1; T_yes has gap 1, T_no gap -3
    assert [row["inlined_gap"] for row in rows] == [str((g - 1) * 1 + 1 * -3)] * 2


def test_lowness_bundle_past_the_decimal_digit_limit(tmp_path, capsys):
    code, out, err = run(capsys, *_lowness(tmp_path, g_pow2=[15000]))
    assert code == 0 and err == ""
    rows = json.loads(out)["results"]["rows"]
    # inlined gap g - 4 with g = 2**15000: 4516 digits, checked modulo 10**12
    tail = str((pow(2, 15000, 10**12) - 4) % 10**12).zfill(12)
    for row in rows:
        assert len(row["inlined_gap"]) == 4516 and row["inlined_gap"].endswith(tail)


def _nested(depth):
    return "[" * depth + '"accept"' + "]" * depth


def _tree_file(tmp_path, depth):
    return _file(tmp_path, f'{{"kind": "tree", "tree": {_nested(depth)}}}')


def _under_frames(count, call):
    """call() under count more interpreter frames."""
    return call() if count == 0 else _under_frames(count - 1, call)


def test_tree_depth_cap_is_one_number_at_any_stack_depth(tmp_path, capsys):
    at, over = tmp_path / "at.json", tmp_path / "over.json"
    for path, depth in ((at, MAX_TREE_DEPTH), (over, MAX_TREE_DEPTH + 1)):
        path.write_text(f'{{"kind": "tree", "tree": {_nested(depth)}}}')
    refusal = (
        f"error: {over}: field 'tree' must be a tree (tree depth {MAX_TREE_DEPTH + 1} exceeds "
        f"the cap {MAX_TREE_DEPTH} (raise gapp.MAX_TREE_DEPTH))\n"
    )
    for extra in (0, 300):
        code, out, err = _under_frames(extra, lambda: run(capsys, "gap-eval", str(at)))
        assert code == 0 and err == "" and json.loads(out)["results"]["gap"] == "1"
        assert _under_frames(extra, lambda: run(capsys, "gap-eval", str(over))) == (1, "", refusal)


def _lowness(tmp_path, **fields):
    return ["lowness", "--bundle", _bundle_with(tmp_path, **fields)]


def _mangled_bundle(tmp_path, mangle):
    doc = json.loads(BUNDLE.read_text())
    mangle(doc)
    return ["lowness", "--bundle", _file(tmp_path, json.dumps(doc))]


def _table(query_count, trees):
    return {"query_count": query_count, "queries": {}, "trees": trees}


def _shipped_table(**fields):
    return {**json.loads(BUNDLE.read_text())["machine"], **fields}


CORPUS_BLIND_SUITES = ("awpp", "lwpp", "lowness", "bbbv", "rerelativize")
CORPUS_SUITES = ("unitarity", "closure", "gaplem")
# ids of the cases whose fault is a flag, an environment variable or a corpus
# directory; every other refusal names the file it read
FAULTS_OUTSIDE_THE_FILE = (
    "bad_path_cap",
    "negative_path_cap",
    "negative_max_configs",
    "non_binary_gap_input",
    "corpus_ignored_by_",
    "missing_corpus_dir_",
)


def _machine_with(tmp_path, **fields):
    doc = rotation_system(BLOCK_REFLECT, 0, 1, 1).to_file_dict()
    doc.update(fields)
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "make_argv,env",
    [
        (lambda tmp: ["simulate", str(tmp / "missing.json")], {}),
        (lambda tmp: ["gap-eval", _file(tmp, "[1, 2]")], {}),
        (lambda tmp: ["gap-eval", _file(tmp, '{"kind": "system"}')], {}),
        (lambda tmp: ["simulate", _machine_with(tmp, n_configs=True)], {}),
        (lambda tmp: ["simulate", _machine_with(tmp)], {"GAPSIM_MAX_PATHS": "abc"}),
        (lambda tmp: ["simulate", _machine_with(tmp)], {"GAPSIM_MAX_PATHS": "-5"}),
        (lambda tmp: ["simulate", _machine_with(tmp), "--max-configs", "-1"], {}),
        (lambda tmp: ["gap-eval", _tree_file(tmp, 5000)], {}),
        (lambda tmp: _lowness(tmp, g_pow2=[-1]), {}),
        (lambda tmp: _lowness(tmp, g_pow2=[True]), {}),
        (lambda tmp: _lowness(tmp, q=[-1]), {}),
        (lambda tmp: _lowness(tmp, inputs="01"), {}),
        (lambda tmp: _lowness(tmp, inputs=["0a"]), {}),
        (lambda tmp: _lowness(tmp, oracle="00"), {}),
        (lambda tmp: _lowness(tmp, machine=_table(-1, {})), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(queries={"": "0a"})), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(queries="ab")), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(trees=[])), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(query_count=2)), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(query_count=10**7)), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(queries={})), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(queries={"": "00", "junk": "1"})), {}),
        (lambda tmp: _lowness(tmp, g_pow2=[0]), {}),
        (lambda tmp: _lowness(tmp, certificate={"style": "far-extreme", "g_pow2": [2]}), {}),
        (lambda tmp: ["gap-eval", str(PARITY_TREE), "--input", "0a"], {}),
        (lambda tmp: ["gap-eval", _file(tmp, '{"kind": "tree"}')], {}),
        (lambda tmp: _lowness(tmp, certificate=[1]), {}),
        (lambda tmp: _mangled_bundle(tmp, lambda d: d.pop("machine")), {}),
        (lambda tmp: _mangled_bundle(tmp, lambda d: d.update(extra=1)), {}),
        (lambda tmp: _mangled_bundle(tmp, lambda d: d["machine"].update(extra=1)), {}),
        (lambda tmp: _mangled_bundle(tmp, lambda d: d["certificate"].update(extra=1)), {}),
        (lambda tmp: ["gap-eval", _file(tmp, '{"kind": "tree", "tree": "accept", "x": 1}')], {}),
        (lambda tmp: ["gap-eval", _file(tmp, json.dumps({**REFLECT_REFERENCE, "x": 1}))], {}),
        *[
            (lambda tmp, suite=suite: ["verify", suite, "--corpus", str(tmp)], {})
            for suite in CORPUS_BLIND_SUITES
        ],
        *[
            (lambda tmp, suite=suite: ["verify", suite, "--corpus", str(tmp / "none")], {})
            for suite in CORPUS_SUITES
        ],
    ],
    ids=[
        "missing_file", "list_tree", "system_without_path", "bool_field", "bad_path_cap",
        "negative_path_cap", "negative_max_configs", "deep_json", "negative_g_pow2",
        "bool_g_pow2", "negative_q", "string_inputs", "non_binary_input", "string_oracle",
        "negative_query_count", "non_binary_query", "string_queries", "list_trees",
        "incomplete_tables", "huge_query_count", "missing_query", "junk_query_key",
        "tally_of_one", "unknown_certificate_style", "non_binary_gap_input",
        "tree_file_without_tree", "list_certificate", "bundle_without_machine",
        "unknown_bundle_key", "unknown_machine_key", "unknown_certificate_key",
        "unknown_tree_file_key", "unknown_system_file_key",
        *[f"corpus_ignored_by_{suite}" for suite in CORPUS_BLIND_SUITES],
        *[f"missing_corpus_dir_{suite}" for suite in CORPUS_SUITES],
    ],
)
def test_malformed_inputs_exit_2_with_one_line(
    make_argv, env, tmp_path, monkeypatch, capsys, request
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = make_argv(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    if request.node.callspec.id.startswith(FAULTS_OUTSIDE_THE_FILE):
        assert not any(err.startswith(f"error: {arg}") for arg in argv if os.sep in arg)
    else:
        path = argv[2] if argv[0] == "lowness" else argv[1]
        assert err.startswith(f"error: {path}: ")


DEPTH_CAP = "tree depth 900 exceeds the cap 256 (raise gapp.MAX_TREE_DEPTH)"
EXPONENT_CAP = "100000 exceeds the cap 65536 (raise lowness.MAX_BUNDLE_EXPONENT)"


@pytest.mark.parametrize(
    "make_argv,refusal",
    [
        (
            lambda tmp: ["gap-eval", _tree_file(tmp, 900)],
            f"field 'tree' must be a tree ({DEPTH_CAP})",
        ),
        (
            lambda tmp: _lowness(tmp, machine=_table(0, {"": json.loads(_nested(900))})),
            f"field 'machine.trees' must be an object of trees ({DEPTH_CAP})",
        ),
        (
            lambda tmp: _lowness(tmp, g_pow2=[100000]),
            f"input '00': 'certificate.g_pow2' {EXPONENT_CAP}",
        ),
        (lambda tmp: _lowness(tmp, q=[100000]), f"input '00': 'q' {EXPONENT_CAP}"),
    ],
    ids=["deep_tree", "deep_bundle_tree", "tally_above_cap", "q_above_cap"],
)
def test_cap_refusals_in_a_file_exit_1_with_one_line(make_argv, refusal, tmp_path, capsys):
    argv = make_argv(tmp_path)
    path = argv[2] if argv[0] == "lowness" else argv[1]
    assert run(capsys, *argv) == (1, "", f"error: {path}: {refusal}\n")


# a value close to each kind that is not of it
NEAR_MISSES = {
    "an integer": True,
    "a non-negative integer": -1,
    "a string": 5,
    "a list of [row, col, numerator] entries": {},
    "a list of non-negative integers": [True],
    "a list of binary strings": "01",
    "an object of binary strings": {"": "0a"},
    "a tree": ["maybe"],
    "an object of trees": {"0": []},
}
SHIPPED_FILES = [
    ("simulate", CORPUS / "machines" / "reflect_t1.json", MACHINE_FILE),
    ("gap-eval", CORPUS / "trees" / "const_seven.json", GAP_MACHINE_FILES["tree"]),
    ("gap-eval", CORPUS / "trees" / "reflect_t1_compiled.json", GAP_MACHINE_FILES["system"]),
    ("lowness", BUNDLE, BUNDLE_FILE),
]


def _variants(doc, table, prefix=""):
    """(dotted key, copy of doc) for an unknown key in each object, and each
    field of table missing and of a wrong kind."""
    yield prefix + "unknown", {**doc, "unknown": 1}
    for key, kind in table.items():
        name = prefix + key
        nested = isinstance(kind, dict)
        yield name, {k: v for k, v in doc.items() if k != key}
        yield name, {**doc, key: [] if nested else NEAR_MISSES[kind[0]]}
        if nested:
            for inner, value in _variants(doc[key], kind, name + "."):
                yield inner, {**doc, key: value}


def test_derived_malformed_variants_exit_2_naming_the_field(tmp_path, capsys):
    path = str(tmp_path / "variant.json")
    count = 0
    for command, shipped, table in SHIPPED_FILES:
        for name, doc in _variants(json.loads(shipped.read_text()), table):
            Path(path).write_text(json.dumps(doc))
            argv = [command, "--bundle", path] if command == "lowness" else [command, path]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (shipped.name, name, err)
            assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
            assert repr(name) in err, (name, err)
            count += 1
    # two per field and one per object: 5 machine fields, 2 in each gap-machine
    # shape, and 10 bundle fields over 3 objects
    assert count == 11 + 5 + 5 + 23


def test_oversized_tree_file_exits_1_with_one_line(tmp_path, capsys):
    tree = _file(tmp_path, json.dumps({"kind": "tree", "tree": ["accept"] * ((1 << 20) + 1)}))
    code, out, err = run(capsys, "gap-eval", tree)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {tree}: field 'tree' must be a tree (tree branches and edges 1048578 exceeds "
        "the cap 1048576 (raise gapp.DEFAULT_BRANCH_BOUND))\n"
    )


def test_oversized_bundle_tree_exits_1_naming_the_path_and_field(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gapp, "DEFAULT_BRANCH_BOUND", 3)  # the shipped "0" tree stores 1 + 3
    bundle = _bundle_with(tmp_path)
    assert run(capsys, "lowness", "--bundle", bundle) == (
        1,
        "",
        f"error: {bundle}: field 'machine.trees' must be an object of trees (tree branches "
        "and edges 4 exceeds the cap 3 (raise gapp.DEFAULT_BRANCH_BOUND))\n",
    )


def test_oversized_referenced_system_exits_1_naming_both_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gapp, "DEFAULT_BRANCH_BOUND", 3)  # reflect_t1's tree stores 4
    reference = _file(tmp_path, json.dumps(REFLECT_REFERENCE))
    assert run(capsys, "gap-eval", reference) == (
        1,
        "",
        f"error: {reference}: {REFLECT_REFERENCE['path']}: system_tree stored nodes and edges "
        "(upper bound) 4 exceeds the cap 3 (raise gapp.DEFAULT_BRANCH_BOUND)\n",
    )


SKEWED = "not norm-preserving: inner product of columns (0,1) is 24, expected 0"


def _skewed_machine(tmp_path):
    # BLOCK_REFLECT with its last sign flipped: unit columns that are not orthogonal
    return _machine_with(tmp_path, entries=[[0, 0, 3], [0, 1, 4], [1, 0, 4], [1, 1, 3]])


def test_simulate_skewed_machine_exits_1_naming_its_path(tmp_path, capsys):
    machine = _skewed_machine(tmp_path)
    assert run(capsys, "simulate", machine) == (1, "", f"error: {machine}: {SKEWED}\n")


def test_reference_to_skewed_machine_exits_1_naming_both_paths(tmp_path, capsys):
    machine = _skewed_machine(tmp_path)
    reference = _file(tmp_path, json.dumps({"kind": "system", "path": "machine.json"}))
    assert run(capsys, "gap-eval", reference) == (
        1,
        "",
        f"error: {reference}: {machine}: {SKEWED}\n",
    )


def test_a_broken_promise_exits_1_as_an_error(rotation_file, capsys, monkeypatch):
    def broken(_system):
        raise PromiseViolation("promise fails at x='', m=1: error 1/5", witness=("", 1))

    # the package re-exports a function as gapsim.evolve
    monkeypatch.setattr(importlib.import_module("gapsim.evolve"), "accept_probability", broken)
    assert run(capsys, "simulate", rotation_file) == (
        1,
        "",
        f"error: {rotation_file}: promise fails at x='', m=1: error 1/5\n",
    )


@pytest.mark.parametrize(
    "fields,refusal",
    [
        ({"n_configs": 0}, "n_configs must be positive"),
        ({"start": 2}, "start index 2 out of range"),
        ({"accept": -1}, "accept index -1 out of range"),
        ({"t": -1}, "running time must be nonnegative"),
    ],
    ids=["no_configs", "start_past_the_end", "negative_accept", "negative_t"],
)
def test_machine_field_refusals_exit_1_naming_the_path(tmp_path, capsys, fields, refusal):
    machine = _machine_with(tmp_path, **fields)
    assert run(capsys, "simulate", machine) == (1, "", f"error: {machine}: {refusal}\n")


def _reference_canonical(value):
    # reference: the JSON-ready copy that json.dumps(indent=2, sort_keys=True) used to lay out
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(Decimal(value))
    if isinstance(value, Fraction):
        return {"den": str(Decimal(value.denominator)), "num": str(Decimal(value.numerator))}
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _reference_canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_reference_canonical(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _reference_text(value):
    return json.dumps(_reference_canonical(value), indent=2, sort_keys=True) + "\n"


def _written(value):
    out = []
    _emit(value, out)
    return "".join(out) + "\n"


# quotes, backslashes, control characters, non-ASCII, a line separator, an astral character
REPORT_CHARS = st.one_of(
    st.sampled_from('"\\\n\t\x00\x1f\x7f\xe9\u2028\U0001f600'), st.characters()
)
REPORT_LEAVES = st.one_of(
    st.text(REPORT_CHARS),
    st.booleans(),
    st.integers(),
    # past the default int-to-str limit of 4,300 digits, either sign
    st.builds(
        lambda digits, low, sign: sign * (10**digits + low),
        st.integers(4300, 4400),
        st.integers(0, 10**9),
        st.sampled_from([1, -1]),
    ),
    st.fractions(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300]),
)
# int keys collide with their str() twins, and the values beside them may not be orderable
REPORT_KEYS = st.one_of(
    st.text(REPORT_CHARS, max_size=3), st.integers(-3, 3), st.integers(-3, 3).map(str)
)
REPORTS = st.recursive(
    REPORT_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(REPORT_KEYS, inner, max_size=5),
    max_leaves=25,
)


@settings(deadline=None)
@given(value=REPORTS)
def test_report_writer_lays_out_what_json_dumps_did(value):
    assert _written(value) == _reference_text(value)


def test_report_writer_keeps_the_last_of_two_equal_keys_and_never_compares_values():
    # "1" then 1: both str() to "1", and a list beside a dict cannot be ordered
    value = {"1": [True], 1: {"a": Fraction(-3, 7)}, "0": []}
    assert _written(value) == _reference_text(value)
    assert json.loads(_written(value)) == {"0": [], "1": {"a": {"den": "7", "num": "-3"}}}


@pytest.mark.parametrize("bad", [(1, 2), {1}, None], ids=["tuple", "set", "none"])
def test_report_writer_refuses_what_the_old_path_refused(bad):
    with pytest.raises(TypeError):
        _reference_text({"rows": [1, bad]})
    with pytest.raises(TypeError):
        _written({"rows": [1, bad]})
