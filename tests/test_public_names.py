"""Every public top-level def or class in gapsim has a reader.

A reader is a name or attribute load somewhere in src/ outside the
definition itself and the package __init__, or anywhere in perfbench/.
Tests do not count: a name only tests read is dead code with a test.
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
}


def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers loaded as names or attributes, outside the skipped subtree."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unread_public_names() -> list[str]:
    modules = {
        path: _parsed(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    }
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _reads(_parsed(path))
    unread = []
    for path, module in modules.items():
        for definition in module.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if name.startswith("_") or name in bench:
                continue
            if any(name in _reads(other, skip=definition) for other in modules.values()):
                continue
            unread.append(f"{path.stem}.{name}")
    return unread


def test_every_public_name_has_a_reader():
    unread = [name for name in _unread_public_names() if name.split(".")[1] not in DOCUMENTED]
    assert unread == []


def test_documented_exemptions_are_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = " ".join(readme.split())
    for name, phrase in DOCUMENTED.items():
        assert phrase in readme, name
