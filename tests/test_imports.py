"""Every name a projspec module imports is referenced in that module, every
module it imports is in the standard library, numpy or projspec, every
private module-level name it defines is referenced somewhere in projspec,
every parameter of its functions is read, the cluster deflation of
normal eigenbases has one entry point and one radius, and the quadrature's
Neumann tail has one rule."""

import ast
import re
import sys
from collections import Counter
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


def _references(tree) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _dead_private_names(trees: dict) -> list:
    """(module, name) for each module-level _name, a function, class or
    assigned constant, that no module of trees references outside its own
    definition."""
    defined = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((mod, node.name, _references(node)[node.name]))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(mod, t.id, 0) for t in targets if isinstance(t, ast.Name)]
    used = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(
        (mod, name)
        for mod, name, own in defined
        if name.startswith("_") and not name.startswith("__") and used[name] == own
    )


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(_SRC.glob("*.py"))}
    assert _dead_private_names(trees) == []


def test_scan_catches_a_dead_private_name():
    trees = {
        "a.py": ast.parse(
            "_USED = 1\n_DEAD = 2\n_SHARED: int = 3\n"
            "def _helper():\n    return _USED\n"
            "def _orphan():\n    return 0\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
        ),
        "b.py": ast.parse("from .a import _helper\nfrom . import a\nx = a._SHARED + _helper()\n"),
    }
    assert _dead_private_names(trees) == [("a.py", "_DEAD"), ("a.py", "_orphan"), ("a.py", "_recursive")]


def _ignored_parameters(tree) -> list:
    """(line, function, parameter) for each parameter of a function or lambda
    that its body, nested functions included, never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + [args.vararg] + args.kwonlyargs + [args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p.arg) for p in params if p is not None and p.arg not in read]
    return found


def test_no_ignored_parameters():
    found = [
        (p.name, *hit)
        for p in sorted(_SRC.glob("*.py"))
        for hit in _ignored_parameters(ast.parse(p.read_text(), filename=str(p)))
    ]
    assert found == []


def test_scan_catches_an_ignored_parameter():
    tree = ast.parse(
        "def f(a, b=1, *rest, tol=None, **kw):\n    return a + len(kw)\n"
        "def g(x, y):\n    def inner():\n        return y\n    x = 2\n    return inner()\n"
        "h = lambda u, v: u\n"
        "class C:\n    def m(self, z):\n        return self\n"
    )
    assert _ignored_parameters(tree) == [
        (1, "f", "b"),
        (1, "f", "rest"),
        (1, "f", "tol"),
        (3, "g", "x"),
        (8, "<lambda>", "v"),
        (10, "m", "z"),
    ]


# Module-level names of a cluster radius for joint_diagonalize.
_DEFLATION_RADIUS = re.compile(r"DEFLATION|EIG_CLUSTER")


def _deflation_forks(trees: dict) -> list:
    """(module, name) for each call of joint_diagonalize outside
    core._normal_eigenbasis, named by the top-level definition that holds
    it, and for each module-level deflation radius (a name matching
    _DEFLATION_RADIUS) that a module other than core defines."""
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            owner = getattr(node, "name", "<module>")
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                called = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                if called == "joint_diagonalize" and (mod, owner) != ("core.py", "_normal_eigenbasis"):
                    found.append((mod, owner))
            if mod != "core.py" and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(mod, t.id) for t in targets if isinstance(t, ast.Name) and _DEFLATION_RADIUS.search(t.id)]
    return sorted(found)


def test_one_deflation_rule():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(_SRC.glob("*.py"))}
    assert _deflation_forks(trees) == []


def test_scan_catches_a_forked_deflation():
    trees = {
        "core.py": ast.parse(
            "DEFLATION_CLUSTER_REL = 1e-7\n"
            "def joint_diagonalize(mats, radii):\n    return mats\n"
            "def _normal_eigenbasis(mats, norms):\n    return joint_diagonalize(mats, norms)\n"
            "def eig_normal(a):\n    return joint_diagonalize([a], [1.0])\n"
        ),
        "commute.py": ast.parse(
            "from . import core\nfrom .core import joint_diagonalize as jd\n"
            "DEFLATION_CLUSTER_REL = 1e-7\n_EIG_CLUSTER_REL: float = 1e-8\n_OFFDIAG_REL = 1e-8\n"
            "def _joint_eigenbasis(mats, norms):\n"
            "    return core._normal_eigenbasis(mats, norms), core.joint_diagonalize(mats, norms)\n"
            "V = core.joint_diagonalize([], [])\n"
        ),
    }
    assert _deflation_forks(trees) == [
        ("commute.py", "<module>"),
        ("commute.py", "DEFLATION_CLUSTER_REL"),
        ("commute.py", "_EIG_CLUSTER_REL"),
        ("commute.py", "_joint_eigenbasis"),
        ("core.py", "eig_normal"),
    ]


def _tail_forks(trees: dict) -> list:
    """(module, name) for each read of _UNIT_ROUNDOFF outside
    riesz._tail_terms, the one tail rule of the quadrature routes, named by
    the top-level definition or assignment that holds it."""
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            owner = getattr(node, "name", names[0] if names else "<module>")
            for sub in ast.walk(node):
                read = (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id == "_UNIT_ROUNDOFF") or (
                    isinstance(sub, ast.Attribute) and sub.attr == "_UNIT_ROUNDOFF"
                )
                if read and (mod, owner) != ("riesz.py", "_tail_terms"):
                    found.append((mod, owner))
    return sorted(found)


def test_one_tail_rule():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(_SRC.glob("*.py"))}
    assert _tail_forks(trees) == []


def test_scan_catches_a_forked_tail_rule():
    trees = {
        "riesz.py": ast.parse(
            "import math\n_UNIT_ROUNDOFF = 2.0**-53\n"
            "_NEUMANN_BOUND = math.sqrt(_UNIT_ROUNDOFF)\n"
            "def _tail_terms(q):\n    return q <= _UNIT_ROUNDOFF\n"
            "def _series_terms(q):\n    return q > _UNIT_ROUNDOFF\n"
        ),
        "agmon.py": ast.parse("from . import riesz\nTAIL: float = riesz._UNIT_ROUNDOFF\nprint(riesz._UNIT_ROUNDOFF)\n"),
    }
    assert _tail_forks(trees) == [
        ("agmon.py", "<module>"),
        ("agmon.py", "TAIL"),
        ("riesz.py", "_NEUMANN_BOUND"),
        ("riesz.py", "_series_terms"),
    ]
