"""Every public top-level def or class in gapsim has a reader.

A reader is a load, in src/ outside the definition itself and the package
__init__, or anywhere in perfbench/, that resolves to the definition: a
bare name in the defining module, a name bound by `from .M import name`
(or `from gapsim.M import name`), or `M.name` on a base named after the
module's stem.  An attribute of some other object with the same name does
not count, nor does a store such as a dataclass field of that name.  Tests
do not count either: a name only tests read is dead code with a test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapsim"

# Kept without a reader in the code because the README documents them:
# name -> the README phrase that does.
DOCUMENTED = {
    "check_pp": "checkers for sign",  # the PP checker; its class is listed as PP
    "check_ceqp": "exact-zero promise",  # the C=P checker; criterion 9 reads it
    "query_magnitudes": "query magnitudes",  # a tool of the oracle lab
    "true_gap": "independent reference that the tests compare",  # the audit's reference
}


def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(stem: str, module: ast.Module) -> list[set[tuple[str, str]]]:
    """Per top-level statement, the (module stem, name) pairs that it loads."""
    imported = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 1:
                source = node.module
            elif node.level == 0 and node.module.startswith("gapsim."):
                source = node.module.removeprefix("gapsim.")
            else:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = (source, alias.name)
    per_statement = []
    for statement in module.body:
        pairs = set()
        for node in ast.walk(statement):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                pairs.add(imported.get(node.id, (stem, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                pairs.add((node.value.id, node.attr))
        per_statement.append(pairs)
    return per_statement


def _unread(package: dict[str, ast.Module], readers: dict[str, ast.Module]) -> list[str]:
    """stem.name of each public top-level def or class in package that no
    statement of readers other than its own definition reads."""
    reads = {key: _reads(key, module) for key, module in readers.items()}
    unread = []
    for stem, module in package.items():
        for index, definition in enumerate(module.body):
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            if definition.name.startswith("_"):
                continue
            if not any(
                (stem, definition.name) in pairs
                for key, statements in reads.items()
                for i, pairs in enumerate(statements)
                if (key, i) != (stem, index)
            ):
                unread.append(f"{stem}.{definition.name}")
    return unread


def _unread_public_names() -> list[str]:
    package = {
        path.stem: _parsed(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    bench = {f"perfbench/{p.stem}": _parsed(p) for p in sorted((ROOT / "perfbench").glob("*.py"))}
    return _unread(package, {**package, **bench})


def test_every_public_name_has_a_reader():
    unread = [name for name in _unread_public_names() if name.split(".")[1] not in DOCUMENTED]
    assert unread == []


def test_documented_exemptions_are_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = " ".join(readme.split())
    for name, phrase in DOCUMENTED.items():
        assert phrase in readme, name


def test_readers_resolve_to_the_defining_module():
    runs = """
def path_count(run):
    return 0

def helper():
    return 0

def total(items):
    return len(items) + helper()

def loop(n):
    return loop(n - 1)

class Run:
    path_count = 0
"""
    audit = """
from . import runs
from .runs import Run as R

def audit():
    run = R()
    return run.path_count + runs.total([])
"""
    package = {"runs": ast.parse(runs), "audit": ast.parse(audit)}
    assert _unread(package, package) == ["runs.path_count", "runs.loop", "audit.audit"]
