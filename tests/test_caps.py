"""One rule for every cap.

CAPS has one row per cap constant of src/gapsim.  Each row lowers its cap
(a monkeypatch, GAPSIM_MAX_PATHS or --max-configs), meets it, and pins the
one refusal text "{what} {value} exceeds the cap {cap} (raise {knob})" of a
ResourceError.  A cap met from the command line also exits 1 with that text
as one stderr line, after the path of the file when it is met while the file
is read.  A guard keeps the table's keys equal to the module-level DEFAULT_*
and MAX_* names, so a new cap cannot skip the rule.
"""

import ast
import json
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from gapsim import gapp, lowness, oracle
from gapsim.cli import main
from gapsim.corpus import BLOCK_REFLECT, Draft, rotation_system
from gapsim.errors import ResourceError
from gapsim.evolve import path_sum
from gapsim.model import build_system

ROOT = Path(__file__).resolve().parents[1]
BUNDLE = ROOT / "corpus" / "lowness" / "fixed_query.json"
ROTATION = rotation_system(BLOCK_REFLECT, 0, 1, 10)  # 2 configurations, 2**10 paths


def _file(tmp_path, doc) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _two_strings_at_step_0():
    draft = Draft()
    for i in range(2):
        draft.cond_phase(draft.cfg(str(i)), format(i, "02b"), 0)
    return draft.query_system(0, 0, 1, 2)


class Cap(NamedTuple):
    lower: Callable  # (monkeypatch) -> None: lowers the cap
    call: Callable  # () -> raises the refusal
    refusal: str
    # (tmp_path) -> (argv, the stderr line before its newline), or None with no CLI route
    command: Callable | None


CAPS = {
    "evolve.DEFAULT_MAX_PATHS": Cap(
        lambda patch: patch.setenv("GAPSIM_MAX_PATHS", "100"),
        lambda: path_sum(ROTATION, 10),
        "paths 101 exceeds the cap 100 (raise GAPSIM_MAX_PATHS)",
        lambda tmp: (
            ["simulate", path := _file(tmp, ROTATION.to_file_dict())],
            f"error: {path}: paths 101 exceeds the cap 100 (raise GAPSIM_MAX_PATHS)",
        ),
    ),
    "model.DEFAULT_MAX_CONFIGS": Cap(
        lambda patch: None,  # lowered by the max_configs argument
        lambda: build_system(ROTATION.to_file_dict(), max_configs=1),
        "n_configs 2 exceeds the cap 1 (raise --max-configs)",
        lambda tmp: (
            ["simulate", path := _file(tmp, ROTATION.to_file_dict()), "--max-configs", "1"],
            f"error: {path}: n_configs 2 exceeds the cap 1 (raise --max-configs)",
        ),
    ),
    "gapp.DEFAULT_BRANCH_BOUND": Cap(
        lambda patch: patch.setattr(gapp, "DEFAULT_BRANCH_BOUND", 3),
        lambda: gapp.tree_from_json(["accept"] * 3),
        "tree branches and edges 4 exceeds the cap 3 (raise gapp.DEFAULT_BRANCH_BOUND)",
        lambda tmp: (
            ["gap-eval", path := _file(tmp, {"kind": "tree", "tree": ["accept"] * 3})],
            f"error: {path}: field 'tree' must be a tree (tree branches and edges 4 exceeds "
            "the cap 3 (raise gapp.DEFAULT_BRANCH_BOUND))",
        ),
    ),
    "gapp.MAX_TREE_DEPTH": Cap(
        lambda patch: patch.setattr(gapp, "MAX_TREE_DEPTH", 1),
        lambda: gapp.tree_from_json([["accept"]]),
        "tree depth 2 exceeds the cap 1 (raise gapp.MAX_TREE_DEPTH)",
        lambda tmp: (
            ["gap-eval", path := _file(tmp, {"kind": "tree", "tree": [["accept"]]})],
            f"error: {path}: field 'tree' must be a tree (tree depth 2 exceeds the cap 1 "
            "(raise gapp.MAX_TREE_DEPTH))",
        ),
    ),
    "oracle.MAX_MIXED_STRINGS": Cap(
        lambda patch: patch.setattr(oracle, "MAX_MIXED_STRINGS", 1),
        lambda: oracle.categorical_check(_two_strings_at_step_0(), ""),
        "strings the machine conditions on 2 exceeds the cap 1 "
        "(raise oracle.MAX_MIXED_STRINGS)",
        None,  # no file kind holds an oracle machine
    ),
    "lowness.MAX_BUNDLE_EXPONENT": Cap(
        lambda patch: patch.setattr(lowness, "MAX_BUNDLE_EXPONENT", 3),
        lambda: lowness.read_instance_bundle(json.loads(BUNDLE.read_text())),
        # log2 g = 2 + 4n is 10 at the first input, "00"
        "input '00': 'certificate.g_pow2' 10 exceeds the cap 3 "
        "(raise lowness.MAX_BUNDLE_EXPONENT)",
        lambda tmp: (
            ["lowness", "--bundle", str(BUNDLE)],
            f"error: {BUNDLE}: input '00': 'certificate.g_pow2' 10 exceeds the cap 3 "
            "(raise lowness.MAX_BUNDLE_EXPONENT)",
        ),
    ),
}


@pytest.mark.parametrize("name", CAPS)
def test_each_cap_refuses_in_the_one_grammar(name, monkeypatch):
    cap = CAPS[name]
    cap.lower(monkeypatch)
    with pytest.raises(ResourceError) as info:
        cap.call()
    assert str(info.value) == cap.refusal


@pytest.mark.parametrize("name", [name for name, cap in CAPS.items() if cap.command])
def test_each_cap_met_from_the_cli_exits_1_with_one_line(name, monkeypatch, tmp_path, capsys):
    cap = CAPS[name]
    cap.lower(monkeypatch)
    argv, line = cap.command(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", line + "\n")
    assert cap.refusal in line


def test_the_table_holds_every_cap():
    names = set()
    for path in (ROOT / "src" / "gapsim").glob("*.py"):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(statement, "targets", [getattr(statement, "target", None)])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith(("DEFAULT_", "MAX_")):
                    names.add(f"{path.stem}.{target.id}")
    assert names == set(CAPS)
