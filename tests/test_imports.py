"""Every name a projspec module imports is referenced in that module, and
every module it imports is in the standard library, numpy or projspec."""

import ast
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "projspec"
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")
_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "projspec"}


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_catches_an_unused_import():
    tree = ast.parse("import math\nfrom typing import List, Tuple\nx: List[int] = []\n")
    assert _unused_imports(tree) == [(1, "math"), (2, "Tuple")]


def _foreign_imports(tree: ast.Module) -> list:
    """(line, module) for each import, function-local ones included, of a
    top-level module outside _ALLOWED; relative imports stay in projspec."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in _ALLOWED]
    return found


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert _foreign_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_catches_a_foreign_import():
    tree = ast.parse(
        "import os, numpy.linalg\nfrom . import core\n"
        "def f():\n    from scipy.optimize import linear_sum_assignment\n    import numba\n"
    )
    assert _foreign_imports(tree) == [(4, "scipy.optimize"), (5, "numba")]
