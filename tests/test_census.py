"""The line census of tools/census.py: what it counts as unrun, and how it reports.

The tool is loaded by path, as a module of its own, and main runs with
run_tier1 replaced, so no test here starts a nested tier-1 run.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

CENSUS = Path(__file__).resolve().parents[1] / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", CENSUS)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

BRANCHES = '''\
def pick(x):
    """Docstring."""
    if x:
        y = 1
    else:
        y = 2
    return y
'''

SPREAD = """\
def biggest():
    return max(
        1,
        2,
    )
"""


def _module(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


def test_unrun_reports_an_else_body_and_leaves_out_docstrings_and_defs(tmp_path):
    path = _module(tmp_path, BRANCHES)
    assert census.unrun(path, {3, 4, 7}) == [(6, "pick", "y = 2")]
    assert census.unrun(path, {3, 4, 6, 7}) == []


@pytest.mark.parametrize("line", [2, 3, 4, 5])
def test_a_multiline_statement_runs_when_any_of_its_lines_ran(tmp_path, line):
    path = _module(tmp_path, SPREAD)
    assert census.unrun(path, {line}) == []
    assert census.unrun(path, set()) == [(2, "biggest", "return max(")]


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A one-module package for main; main's chdir and sys.path entry are undone after."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(census, "PACKAGE", tmp_path)
    return _module(tmp_path, BRANCHES)


def _tier1(monkeypatch, path, lines, status=0, output=""):
    ran = {os.path.realpath(path): set(lines)}
    monkeypatch.setattr(census, "run_tier1", lambda: (status, output, ran))


def test_main_prints_each_unrun_statement_and_exits_1(package, monkeypatch, capsys):
    _tier1(monkeypatch, package, {3, 4, 7})
    assert census.main() == 1
    assert capsys.readouterr().out == "module.py:6 pick: y = 2\n"


def test_main_is_silent_and_exits_0_when_every_statement_ran(package, monkeypatch, capsys):
    _tier1(monkeypatch, package, {3, 4, 6, 7})
    assert census.main() == 0
    assert capsys.readouterr().out == ""


def test_main_prints_the_tier1_output_when_tier1_fails(package, monkeypatch, capsys):
    _tier1(monkeypatch, package, {3, 4, 6, 7}, status=1, output="F\n")
    assert census.main() == 1
    assert capsys.readouterr().out == "F\ncensus: tier-1 failed (pytest exit 1)\n"
