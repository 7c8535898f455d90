"""Every public name, class member and parameter in gapsim has a reader.

A reader of a top-level def or class is a load, in src/ outside the
definition itself and the package __init__, or anywhere in perfbench/,
that resolves to the definition: a bare name in the defining module, a
name bound by `from .M import name` (or `from gapsim.M import name`), or
`M.name` on a base named after the module's stem.  An attribute of some
other object with the same name does not count, nor does a store such as
a dataclass field of that name.  Tests do not count either: a name only
tests read is dead code with a test.

A reader of a member (an annotated field, public method or property of a
public top-level class) is an attribute load of that name anywhere in
src/gapsim or perfbench/.  This scan matches by name only, so a member
passes when any object's attribute of the same name is loaded: for
example a report field named `epsilon` would pass because
`params.epsilon` is read.  Such members have to be found by hand.  A
keyword argument that sets a field is a store, not a read.

A reader of a parameter of a top-level function or method is a load of
its name in the body, nested functions and lambdas included.  `self`,
`cls` and names starting with `_` are exempt.

Each name has one import path, its module: the package __init__ binds
only the names that a perfbench test still reads on the package.
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


# Parameters that the code ignores but perfbench passes, kept until the
# benchmark changes its calls: stem.function(parameter) -> the functions of
# perfbench/workloads.py that call it.
PERFBENCH_ARGUMENTS = {
    "oracle.OracleQuerySystem.instance(x)": ("_flip_job", "_decide_job", "setup_oracle_lab"),
    "oracle.OracleQuerySystem.p(n)": ("_flip_job", "_decide_job"),
    "oracle.verify_flip_stability(x)": ("_flip_job",),
    "trees.gap(node_budget)": ("_combinator_job",),
}

# Names that the package __init__ binds, kept until perfbench stops reading
# them on the package: name -> the perfbench/test_perfbench.py test that does.
PACKAGE_NAMES = {"evolve": "test_layer_handles_are_modules"}


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


def _unread_members(package: dict[str, ast.Module], readers: dict[str, ast.Module]) -> list[str]:
    """stem.Class.member of each annotated field, public method and property
    of a public top-level class in package whose name no attribute load in
    readers has."""
    loaded = {
        node.attr
        for module in readers.values()
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for stem, module in package.items():
        for cls in module.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef):
                    name = item.name
                else:
                    continue
                if not name.startswith("_") and name not in loaded:
                    unread.append(f"{stem}.{cls.name}.{name}")
    return unread


def _unloaded_parameters(package: dict[str, ast.Module]) -> list[str]:
    """stem.function(parameter) of each parameter of a top-level function or
    method that its body, nested functions and lambdas included, never loads."""
    functions = []
    for stem, module in package.items():
        for node in module.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{stem}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                functions += [
                    (f"{stem}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    unloaded = []
    for qualname, function in functions:
        loaded = {
            node.id
            for statement in function.body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        args = function.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
            if arg is None or arg.arg in ("self", "cls") or arg.arg.startswith("_"):
                continue
            if arg.arg not in loaded:
                unloaded.append(f"{qualname}({arg.arg})")
    return unloaded


def _package() -> dict[str, ast.Module]:
    return {
        path.stem: _parsed(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _bench() -> dict[str, ast.Module]:
    return {f"perfbench/{p.stem}": _parsed(p) for p in sorted((ROOT / "perfbench").glob("*.py"))}


def test_every_public_name_has_a_reader():
    package = _package()
    unread = _unread(package, {**package, **_bench()})
    assert [name for name in unread if name.split(".")[1] not in DOCUMENTED] == []


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


def test_every_member_has_a_reader():
    package = _package()
    assert _unread_members(package, {**package, **_bench()}) == []


def test_every_parameter_is_read_or_passed_by_perfbench():
    assert sorted(_unloaded_parameters(_package())) == sorted(PERFBENCH_ARGUMENTS)


def test_each_allowlisted_parameter_has_its_perfbench_caller():
    workloads = _parsed(ROOT / "perfbench" / "workloads.py")
    callers = {node.name: node for node in workloads.body if isinstance(node, ast.FunctionDef)}
    for entry, names in PERFBENCH_ARGUMENTS.items():
        function = entry.split("(")[0].rsplit(".", 1)[1]
        for name in names:
            assert any(
                isinstance(node, ast.Attribute) and node.attr == function
                for node in ast.walk(callers[name])
            ), (entry, name)


def test_the_package_binds_only_its_pinned_names():
    docstring, *statements = _parsed(PACKAGE / "__init__.py").body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.dump(statement) for statement in statements] == [
        ast.dump(ast.parse(f"from .{name} import {name}").body[0]) for name in PACKAGE_NAMES
    ]


def test_each_pinned_package_name_has_its_perfbench_test():
    tests = _parsed(ROOT / "perfbench" / "test_perfbench.py")
    functions = {node.name: node for node in tests.body if isinstance(node, ast.FunctionDef)}
    for name, test in PACKAGE_NAMES.items():
        assert any(
            isinstance(node, ast.Attribute) and node.attr == name
            for node in ast.walk(functions[test])
        ), (name, test)


def test_members_and_parameters_need_a_load():
    report = """
from dataclasses import dataclass

@dataclass
class Row:
    x: str
    member: bool
    _cache: int = 0

    @property
    def ok(self) -> bool:
        return bool(self.x)

    def describe(self) -> str:
        return self.x

    def scaled(self, factor, _unused):
        return lambda: self.x * factor

def build(x, ignored):
    ignored = x  # a store, not a read
    return Row(x=x, member=True)

def verdict(rows):
    return all(row.ok and row.scaled(2, None)() for row in rows)
"""
    # A test may call describe and read member; tests are not readers.
    tests = """
from .report import build

def test_row():
    row = build("1", None)
    assert row.describe() == "1" and row.member
"""
    package = {"report": ast.parse(report)}
    assert _unread_members(package, package) == ["report.Row.member", "report.Row.describe"]
    assert _unread_members(package, {**package, "tests": ast.parse(tests)}) == []
    assert _unloaded_parameters(package) == ["report.build(ignored)"]
