import json
from pathlib import Path

import pytest

from gapsim.cli import main
from gapsim.corpus import BLOCK_REFLECT, rotation_system, write_corpus

BUNDLE = Path(__file__).resolve().parents[1] / "corpus" / "lowness" / "fixed_query.json"


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


def test_bbbv_epsilon_flag(capsys):
    code, out, _ = run(capsys, "bbbv", "--epsilon", "1/10")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert all(row["epsilon"] == "1/10" for row in rows)


def test_bad_epsilon_exits_2(capsys):
    code, _, err = run(capsys, "bbbv", "--epsilon", "one-seventh")
    assert code == 2


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


def _lowness(tmp_path, **fields):
    return ["lowness", "--bundle", _bundle_with(tmp_path, **fields)]


def _table(query_count, trees):
    return {"query_count": query_count, "queries": {}, "trees": trees}


def _shipped_table(**fields):
    return {**json.loads(BUNDLE.read_text())["machine"], **fields}


CORPUS_BLIND_SUITES = ("awpp", "lwpp", "lowness", "bbbv", "rerelativize")
CORPUS_SUITES = ("unitarity", "closure", "gaplem")


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
        (lambda tmp: ["gap-eval", _tree_file(tmp, 900)], {}),
        (lambda tmp: _lowness(tmp, g_pow2=[-1]), {}),
        (lambda tmp: _lowness(tmp, g_pow2=[True]), {}),
        (lambda tmp: _lowness(tmp, q=[-1]), {}),
        (lambda tmp: _lowness(tmp, inputs="01"), {}),
        (lambda tmp: _lowness(tmp, inputs=["0a"]), {}),
        (lambda tmp: _lowness(tmp, oracle="00"), {}),
        (lambda tmp: _lowness(tmp, machine=_table(-1, {})), {}),
        (lambda tmp: _lowness(tmp, machine=_table(0, {"": json.loads(_nested(900))})), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(queries={"": "0a"})), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(queries="ab")), {}),
        (lambda tmp: _lowness(tmp, machine=_shipped_table(trees=[])), {}),
        (lambda tmp: _lowness(tmp, g_pow2=[100000]), {}),
        (lambda tmp: _lowness(tmp, q=[100000]), {}),
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
        "negative_path_cap", "negative_max_configs", "deep_json", "deep_tree",
        "negative_g_pow2", "bool_g_pow2", "negative_q", "string_inputs", "non_binary_input",
        "string_oracle", "negative_query_count", "deep_bundle_tree", "non_binary_query",
        "string_queries", "list_trees", "tally_above_cap", "q_above_cap",
        *[f"corpus_ignored_by_{suite}" for suite in CORPUS_BLIND_SUITES],
        *[f"missing_corpus_dir_{suite}" for suite in CORPUS_SUITES],
    ],
)
def test_malformed_inputs_exit_2_with_one_line(make_argv, env, tmp_path, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *make_argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")


def test_oversized_tree_file_exits_1_with_one_line(tmp_path, capsys):
    tree = _file(tmp_path, json.dumps({"kind": "tree", "tree": ["accept"] * ((1 << 20) + 1)}))
    code, out, err = run(capsys, "gap-eval", tree)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "branch_bound" in err
