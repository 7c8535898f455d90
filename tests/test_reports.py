"""Every shipped CLI report, byte for byte: sha256 of stdout and the exit code.

The commands run in-process from the repository root, so the input paths
printed in each report are the relative ones below.  After a deliberate
report change, regenerate the digest file from the repository root with

    PYTHONPATH=src python tests/test_reports.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gapsim.cli import main
from gapsim.suites import SUITES

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("report_digests.json")


def _commands() -> list[tuple[str, ...]]:
    def shipped(sub):
        paths = (ROOT / "corpus" / sub).glob("*.json")
        return sorted(path.relative_to(ROOT).as_posix() for path in paths)

    return [
        *[("verify", suite) for suite in SUITES],
        *[("verify", suite, "--corpus", "corpus") for suite in ("unitarity", "closure", "gaplem")],
        ("bbbv", "--epsilon", "1/10"),
        *[("simulate", path) for path in shipped("machines")],
        *[
            ("gap-eval", path, "--input", x)
            for path in shipped("trees")
            for x in ("", "0", "01", "110")
        ],
        ("lowness", "--bundle", "corpus/lowness/fixed_query.json"),
    ]


COMMANDS = _commands()


def _report(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _key(argv) -> str:
    return " ".join(repr(a) if a == "" else a for a in argv)


def test_digest_file_lists_every_command():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(map(_key, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_report_is_unchanged(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _report(argv) == json.loads(DIGESTS.read_text())[_key(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    digests = {_key(argv): _report(argv) for argv in COMMANDS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}\n")
