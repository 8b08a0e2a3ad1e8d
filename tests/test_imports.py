"""Every module of ``src/k3lat`` and of ``tests`` uses each name it
imports, and every module-level private name of either is read somewhere
in its own directory.

``k3lat/__init__`` is exempt from the first: it imports names to
re-export them.
A name counts as used when it is read anywhere in the module, string
annotations included; binding it is no use.  A private name also counts as
read when it is an attribute (``module._name``).

Importing k3lat, its catalog and its command line imports neither
``dataclasses`` nor ``inspect``: its records are named tuples, so the
import generates no code.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "k3lat"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


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
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.stem if p.parent == SRC else f"tests.{p.stem}" for p in MODULES]
)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), str(path))
    assert sorted(set(_imported(tree)) - _used(tree)) == []


def test_guard_sees_an_unused_import():
    tree = ast.parse(
        "from fractions import Fraction\nimport math, os.path\n"
        "def f(x: 'Fraction') -> int:\n    return math.floor(x)\n"
    )
    assert sorted(set(_imported(tree)) - _used(tree)) == ["os"]


def test_importing_k3lat_generates_no_dataclasses():
    # without site, nothing but k3lat can import them
    code = (
        "import sys\n"
        "import k3lat, k3lat.catalog, k3lat.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    res = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["[]"]


def _private(tree):
    """Names that ``def _x``, ``class _X`` or ``_X = ...`` bind at module
    level; dunders are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def _dead_private(trees):
    read = set()
    for tree in trees.values():
        read |= _used(tree)
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in _private(tree)
        if name not in read
    )


def _trees(directory):
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(directory.glob("*.py"))}


def test_every_private_name_is_read():
    assert _dead_private(_trees(SRC)) == []


def test_every_private_name_of_the_tests_is_read():
    assert _dead_private(_trees(TESTS)) == []


def test_guard_sees_a_dead_private_name():
    trees = {
        "a": ast.parse(
            "_SEEN = {}\n_LEFT = 1\n_both: int = 2\n"
            "def _helper(): return _SEEN\n"
            "class _Gone: pass\n"
            "def _late(x: '_Both'): pass\n"
        ),
        "b": ast.parse("from a import _helper\nclass _Both: pass\nprint(_helper, a._late)\n"),
    }
    assert _dead_private(trees) == ["a._Gone", "a._LEFT", "a._both"]



def _read_sites(tree, name):
    """The top-level definition around each read of ``name`` in ``tree``, a
    call or any other, plain or as an attribute (``exact.name``);
    ``<module>`` for a read outside every definition."""
    return [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == name and not isinstance(node.ctx, ast.Store)
        or isinstance(node, ast.Attribute) and node.attr == name
    ]


def _modules_read(tree):
    """Each module an import of ``tree`` names, with each name imported from
    it, relative ones without their dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names)


def _reads_exact(tree):
    return any("exact" in module.split(".") for module in _modules_read(tree))


def test_one_inversion_path():
    # every Gram-matrix inverse comes from bounds._support, through the one
    # Bareiss call in bounds._adjugate, and catalog reads its lattice data
    # off bounds rather than eliminating on its own
    trees = _trees(SRC)
    sites = {stem: _read_sites(tree, "bareiss") for stem, tree in trees.items()}
    assert {stem: at for stem, at in sites.items() if at} == {"bounds": ["_adjugate"]}
    assert not _reads_exact(trees["catalog"])


def test_guard_sees_a_second_bareiss_call_and_an_exact_import():
    tree = ast.parse(
        "from . import exact\n"
        "def _adjugate(g):\n    return bareiss(g)\n"
        "class Entry:\n    def total(self, g):\n        return exact.bareiss(g)[0]\n"
        "DET = bareiss([[1]])\n"
    )
    assert _read_sites(tree, "bareiss") == ["_adjugate", "Entry", "<module>"]
    for line in ("from . import exact", "from .exact import bareiss", "import k3lat.exact",
                 "from k3lat.exact import bareiss", "from k3lat import exact as e"):
        assert _reads_exact(ast.parse(line)), line
    assert not _reads_exact(ast.parse("from . import bounds, exacting\nfrom .graph import classify"))


def test_one_confirmation_path():
    # every root diagram is confirmed by roots._confirmed, the one reader
    # of the standard rows, which alone read the checked standard Gram
    # matrices
    trees = _trees(SRC)
    for name, reader in (("standard_gram", "_standard_rows"), ("_standard_rows", "_confirmed")):
        sites = {stem: _read_sites(tree, name) for stem, tree in trees.items()}
        assert {stem: at for stem, at in sites.items() if at} == {"roots": [reader]}, name


def test_guard_sees_a_second_reader():
    tree = ast.parse(
        "def _confirmed(k):\n    return _standard_rows(k)\n"
        "def _recheck(k):\n    rows = _standard_rows\n"
        "    return rows(k) == roots._standard_rows(k)\n"
        "_standard_rows = None\n"
    )
    assert _read_sites(tree, "_standard_rows") == ["_confirmed", "_recheck", "_recheck"]
