"""Source hygiene: no module of the package imports a name it never uses.

No linter ships with the project, so this walks each module's syntax tree.
`__init__.py` is skipped: its imports are the package's exports.
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
