"""Source hygiene: no module of the package imports a name it never uses, and
no module-level `_private` name is left that nothing in the package reads.

No linter ships with the project, so this walks each module's syntax tree.
`__init__.py` is skipped as a module: its imports are the package's exports.
A private helper that only the tests call fails here, though the tests pass.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sunit_harvest"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_detected():
    source = "from math import gcd, log\nimport numpy as np\nimport os.path\nprint(log(np.e))\n"
    assert unused_imports(source) == ["line 1: gcd", "line 3: os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level _private name (not a dunder) that no
    other statement of its module reads and no module imports or reads as an
    attribute.  sources maps module names to their source text."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    imported = {(n.module, alias.name) for n in nodes if isinstance(n, ast.ImportFrom) for alias in n.names}
    attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    missing = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in defined:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                read = any(
                    isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                    for other in tree.body
                    if other is not top
                    for n in ast.walk(other)
                )
                if not (read or (module, name) in imported or name in attributes):
                    missing.append(f"{module}.{name}")
    return missing


def test_unreferenced_privates_detected():
    sources = {
        "a": "def _read(): pass\ndef _recursive(): return _recursive()\n_IMPORTED, __all__ = 1, []\nprint(_read())\n",
        "b": "from .a import _IMPORTED\nclass _Dead: pass\n",
    }
    assert unreferenced_privates(sources) == ["a._recursive", "b._Dead"]


def test_no_unreferenced_privates():
    # __init__.py counts here: what it imports is read
    assert unreferenced_privates({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []
