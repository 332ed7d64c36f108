"""Every imported name is used, and every package definition is read.

An AST scan of the package and the tests: a name bound by an import must
be read somewhere in the same file, in code or in a string annotation.
The package's __init__ re-exports its imports, and __future__ imports
change the compiler, so neither is scanned.

A second scan keeps dead code out of the package: every top-level def and
class in src/tanglesum must be read by some other top-level statement of
src/, tests/ or bench/, as a name, an attribute, an imported name or a
string equal to it (monkeypatch.setattr and the bench's trace points look
functions up by name).  The __init__ re-exports count for nothing, so a
public name needs a caller too.  A third scan does the same for the
methods of package classes: each one, dunders aside, must be read as an
attribute, or named in an identifier string, outside its own def.

A last scan keeps the oracles apart from what they check: the test oracles
import nothing from tanglesum.engine, and the engine nothing from racks or
abelian, whose colourings and tensor squares the oracles build on.

Apart from the scans, a fresh interpreter checks that building the paper's
groups and crossed modules does not import numpy.ma, which np.unique
without index outputs loads (about 1.3 MB and 20 ms).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tanglesum"
FILES = sorted(
    p for p in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py")
READERS = sorted({*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")} - {PACKAGE / "__init__.py"})


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
    # relative imports are read as tanglesum's
    assert "tanglesum.pairs" in _imported_modules(PACKAGE / "engine.py")


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in read)
    assert not unused, f"unused imports in {path.name}: {unused}"


def _mentions(node: ast.AST) -> set[str]:
    """Names a statement reads: names, attributes, imported names and
    strings that are identifiers."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            out.add(n.value)
    return out


def _unread_definitions() -> list[str]:
    """module.name of each top-level package def or class that no other
    top-level statement of READERS reads."""
    defs, mentions = [], []
    for path in READERS:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            mentions.append((stmt, _mentions(stmt)))
            if path.parent == PACKAGE and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, stmt))
    return [f"{module}.{stmt.name}" for module, stmt in defs
            if not any(stmt.name in names
                       for other, names in mentions if other is not stmt)]


def test_every_package_definition_is_read():
    assert any(p.parent.name == "bench" for p in READERS)
    assert not _unread_definitions()


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read as an attribute, or written as an
    identifier string, under node."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Constant) and isinstance(n.value, str)
        and n.value.isidentifier())


def _unread_methods() -> list[str]:
    """module.Class.method of each non-dunder method of a top-level package
    class that READERS read only inside the method's own def."""
    reads: Counter = Counter()
    methods = []
    for path in READERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(_attribute_reads(tree))
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [
                    (f"{path.stem}.{cls.name}.{f.name}", f) for f in cls.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (f.name.startswith("__") and f.name.endswith("__"))]
    return [name for name, f in methods
            if reads[f.name] <= _attribute_reads(f)[f.name]]


def test_every_package_method_is_read():
    assert not _unread_methods()


def _imported_modules(path: Path) -> set[str]:
    """Every module path imports, a relative one read inside tanglesum;
    each name a from-import binds counts as a submodule too."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, (
                "tanglesum" if node.level else None, node.module)))
            out.update([base, *(f"{base}.{a.name}" for a in node.names)])
    return out


@pytest.mark.parametrize("path, forbidden", [
    ("tests/oracles.py", "tanglesum.engine"),
    ("tests/slice_oracle.py", "tanglesum.engine"),
    ("src/tanglesum/engine.py", "tanglesum.racks"),
    ("src/tanglesum/engine.py", "tanglesum.abelian"),
])
def test_oracles_and_the_engine_stay_apart(path, forbidden):
    assert forbidden not in _imported_modules(ROOT / path)


NO_NUMPY_MA = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("numpy loads numpy.ma itself")
    sys.exit(0)
from tanglesum.crossed_modules import (
    abelianisation_tensor_2xmod, braided_from_central_extension)
from tanglesum.groups import pgl2, symmetric_group
_, proj = pgl2(5)
braided_from_central_extension(proj)
assert proj.is_surjective
abelianisation_tensor_2xmod(symmetric_group(3))
print("numpy.ma loaded" if "numpy.ma" in sys.modules else "ok")
"""


def test_building_the_paper_groups_leaves_numpy_ma_unloaded():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", NO_NUMPY_MA], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    if run.stdout.strip() == "numpy loads numpy.ma itself":
        pytest.skip(run.stdout.strip())
    assert run.stdout.strip() == "ok"
