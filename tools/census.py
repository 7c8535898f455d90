"""Line census: every function-body statement in src/gapsim runs in tier-1.

Run from anywhere as `python tools/census.py`.  It runs the tier-1 tests
in this process, with hypothesis seed 0 and the warning filters of
pyproject.toml (every warning an error, as in CI), under a
trace function that records the lines run in src/gapsim frames only.  It
then prints each function-body statement that never ran, as

    module.py:LINE FUNCTION: FIRST LINE OF THE STATEMENT

leaving out docstrings and `def`/`class` lines.  A statement counts as run
when a line event fell on one of its own lines (those of no statement
nested in it) or when a statement nested in it ran, so a multi-line
statement counts whichever of its lines the interpreter reports.

tools/census_allowed.txt lists the statements kept unrun on purpose.  Each
entry is one line `module.py FUNCTION: STATEMENT`, matched on module,
function and statement text (never on the line number), followed by one
indented line that gives the reason.  The exit code is 1 when a statement
that no entry lists never ran, when an entry matches no unrun statement,
when an entry has no reason, or when tier-1 fails (its output is printed
then); otherwise it is 0 and nothing is printed.

Line events of multi-line statements differ between Python versions, so
the census is kept on one version (CI runs it on 3.11).
"""

import ast
import contextlib
import io
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapsim"
ALLOWED = Path(__file__).resolve().with_name("census_allowed.txt")
PYTEST_ARGS = [
    "-q",
    "-p", "no:cacheprovider",
    "--hypothesis-seed=0",
    "tests",
]


def run_tier1() -> tuple[int, str, dict[str, set[int]]]:
    """Run tier-1 under the collector: (exit code, pytest output, lines run per file)."""
    package = os.path.realpath(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    followed: dict[object, object] = {}  # code object -> its line recorder, or None

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in followed:
            filename = os.path.realpath(code.co_filename)
            inside = filename.startswith(package)
            followed[code] = _recorder(ran.setdefault(filename, set())) if inside else None
        return followed[code]

    output = io.StringIO()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            status = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), output.getvalue(), ran


def _recorder(lines: set[int]):
    """A local trace function that adds the line of each line event to lines."""
    add = lines.add

    def record(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return record

    return record


def unrun(path: Path, lines_run: set[int]) -> list[tuple[int, str, str]]:
    """The function-body statements of one module that did not run: (line, function, first line)."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    out = []

    def visit(body, function, scope) -> bool:
        """Record the unrun statements of one body; whether any of them ran."""
        any_ran = False
        for index, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}{stmt.name}"
                visit(stmt.body, None if isinstance(stmt, ast.ClassDef) else inner, inner + ".")
                continue
            child_ran = False
            own = set(range(stmt.lineno, stmt.end_lineno + 1))
            for child_body in _child_bodies(stmt):
                child_ran |= visit(child_body, function, scope)
                for child in child_body:
                    own -= set(range(child.lineno, child.end_lineno + 1))
            if function is None or (index == 0 and _is_docstring(stmt)):
                continue  # module or class level, or a docstring
            ran = child_ran or not own.isdisjoint(lines_run)
            if not ran:
                out.append((stmt.lineno, function, lines[stmt.lineno - 1].strip()))
            any_ran |= ran
        return any_ran

    visit(ast.parse(source, filename=str(path)).body, None, "")
    return sorted(out)


def _child_bodies(stmt: ast.stmt):
    for field in ("body", "orelse", "finalbody"):
        body = getattr(stmt, field, None)
        if isinstance(body, list):
            yield body
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body
    for case in getattr(stmt, "cases", ()):
        yield case.body


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def read_allowed(path: Path) -> dict[str | None, list[str]]:
    """The allow-list: {entry `module.py FUNCTION: STATEMENT`: its reason lines};
    reason lines before the first entry go under None."""
    entries: dict[str | None, list[str]] = {}
    entry = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            entries.setdefault(entry, []).append(line.strip())
        else:
            entry = line.strip()
            entries[entry] = []
    return entries


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, output, ran = run_tier1()
    if status != 0:
        sys.stdout.write(output)
        print(f"census: tier-1 failed (pytest exit {status})")
        return 1
    allowed = read_allowed(ALLOWED)
    matched = set()
    failed = False
    for path in sorted(PACKAGE.glob("*.py")):
        for line, function, text in unrun(path, ran.get(os.path.realpath(path), set())):
            entry = f"{path.name} {function}: {text}"
            if entry in allowed:
                matched.add(entry)
            else:
                print(f"{path.name}:{line} {function}: {text}")
                failed = True
    for entry, reasons in allowed.items():
        if entry is None:
            print("census_allowed.txt: a reason line comes before the first entry")
            failed = True
        elif len(reasons) != 1:
            print(f"census_allowed.txt: {entry} needs exactly one reason line after it")
            failed = True
        elif entry not in matched:
            print(f"census_allowed.txt: no unrun statement matches {entry}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
