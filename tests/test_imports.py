"""Every module of ``src/k3lat`` uses each name it imports.

``__init__`` is exempt: it imports names to re-export them.  A name counts
as used when it is read anywhere in the module, string annotations
included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "k3lat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), str(path))
    assert sorted(set(_imported(tree)) - _used(tree)) == []


def test_guard_sees_an_unused_import():
    tree = ast.parse(
        "from fractions import Fraction\nimport math, os.path\n"
        "def f(x: 'Fraction') -> int:\n    return math.floor(x)\n"
    )
    assert sorted(set(_imported(tree)) - _used(tree)) == ["os"]
