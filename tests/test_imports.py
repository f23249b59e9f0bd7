"""Every imported name is used: a removed caller must not leave its import
behind.  Names re-exported through ``__all__`` count as used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pinlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return sorted(f"{name} (line {imported[name]})" for name in unused)


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport math as m\nfrom a import b\n"
    source += "__all__ = ['b']\nprint(m.pi)\n"
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
