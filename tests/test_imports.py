"""Every imported name is used by the module that imports it.

An AST scan of the package and the tests: a name bound by an import must
be read somewhere in the same file, in code or in a string annotation.
The package's __init__ re-exports its imports, and __future__ imports
change the compiler, so neither is scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*(ROOT / "src" / "tanglesum").glob("*.py"),
                *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside __future__."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr)
                         if isinstance(n, ast.Name))
    return names


def test_the_scan_finds_files():
    assert any(p.name == "engine.py" for p in FILES)
    assert any(p.name == "test_engine.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in read)
    assert not unused, f"unused imports in {path.name}: {unused}"
