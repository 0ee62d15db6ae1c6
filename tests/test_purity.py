"""The package is pure Python with no runtime dependencies: every import in
``src/exactspan`` is either from the standard library or relative to the
package.  numpy, sympy and friends may appear in tests and benchmarks only.
Every name a module imports is also read in it, except in ``__init__.py``,
which imports names to re-export them.

It also runs on Python 3.10 (``requires-python``): ``int.to_bytes`` and
``int.from_bytes`` gained their default ``byteorder`` (and ``to_bytes`` its
default ``length``) only in 3.11, so every call passes them explicitly."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "exactspan"
MODULES = sorted(SRC.glob("*.py"))
NON_INIT = [p for p in MODULES if p.name != "__init__.py"]


def foreign_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


def test_package_modules_found():
    assert SRC / "__init__.py" in MODULES and SRC / "core.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_stdlib_or_relative_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(foreign_imports(tree)) == []


def test_guard_flags_third_party_imports():
    tree = ast.parse(
        "import numpy as np\n"
        "from sympy.matrices import Matrix\n"
        "import os, fractions\n"
        "from . import core\n"
        "from .field import GF\n"
        "def f():\n"
        "    import exactspan\n"
    )
    assert list(foreign_imports(tree)) == [(1, "numpy"), (2, "sympy.matrices"), (7, "exactspan")]


def implicit_byte_conversions(tree: ast.AST):
    """``to_bytes`` calls without a length or a byteorder, ``from_bytes``
    calls without a byteorder, and references to either that are not called
    on the spot (passed to ``map``, say), whose arguments cannot be checked."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name not in ("to_bytes", "from_bytes"):
                continue
            called.add(id(node.func))
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                yield node.lineno, name
                continue
            given = {k.arg for k in node.keywords}
            needed = [("length", 0), ("byteorder", 1)] if name == "to_bytes" else [("byteorder", 1)]
            if any(len(node.args) <= pos and arg not in given for arg, pos in needed):
                yield node.lineno, name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes") and id(node) not in called:
            yield node.lineno, node.attr


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_byte_conversions_pass_length_and_byteorder(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(implicit_byte_conversions(tree)) == []


def test_guard_flags_implicit_byte_conversions():
    tree = ast.parse(
        "x.to_bytes(4, 'little')\n"
        "x.to_bytes(length=4, byteorder='big')\n"
        "int.from_bytes(b, 'little')\n"
        "int.from_bytes(b, byteorder='little', signed=False)\n"
        "x.to_bytes()\n"
        "x.to_bytes(4)\n"
        "x.to_bytes(byteorder='little')\n"
        "int.from_bytes(b)\n"
        "int.from_bytes(b, signed=True)\n"
        "x.to_bytes(*args)\n"
        "int.from_bytes(**kwargs)\n"
        "list(map(int.from_bytes, chunks))\n"
    )
    assert sorted(implicit_byte_conversions(tree)) == [
        (5, "to_bytes"), (6, "to_bytes"), (7, "to_bytes"), (8, "from_bytes"), (9, "from_bytes"),
        (10, "to_bytes"), (11, "from_bytes"), (12, "from_bytes"),
    ]


def unused_imports(tree: ast.AST):
    """Names bound by an import (other than ``from __future__``) that the
    module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


@pytest.mark.parametrize("path", NON_INIT, ids=[p.name for p in NON_INIT])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(unused_imports(tree)) == []


def test_guard_flags_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "from typing import List, Optional as Opt\n"
        "from .core import Vector, matrix\n"
        "matrix = None\n"
        "def f(v: Vector) -> List[int]:\n"
        "    return sys.argv\n"
    )
    assert sorted(unused_imports(tree)) == [(2, "os"), (3, "os"), (4, "Opt"), (5, "matrix")]


def unused_private_names(tree: ast.Module):
    """Module-level functions, classes and assigned names that start with a
    single underscore and that the module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__") and name not in read:
                yield node.lineno, name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(unused_private_names(tree)) == []


def test_guard_flags_unused_private_names():
    tree = ast.parse(
        "__all__ = ['f']\n"
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "_a, (_b, c) = 3, (4, 5)\n"
        "_annotated: int = 6\n"
        "def _helper():\n"
        "    return _USED + _a\n"
        "def _dead():\n"
        "    pass\n"
        "class _Dead:\n"
        "    _attr = 7\n"
        "    def _method(self):\n"
        "        return self._attr\n"
        "def f():\n"
        "    _local = 8\n"
        "    return _helper()\n"
    )
    assert sorted(unused_private_names(tree)) == [
        (3, "_UNUSED"), (4, "_b"), (5, "_annotated"), (8, "_dead"), (10, "_Dead"),
    ]


# Wraps a sequence as a Frame without the independence check.  Only the
# engine, which has just proven the independence, may call it; input from
# outside (the CLI, file parsing, random instances, the oracle) always goes
# through the validating ``Frame(seq)``.
UNCHECKED_FRAME = "_proven_frame"
UNCHECKED_FRAME_USERS = ("spans.py", "lemma.py")


def references(tree: ast.AST, name: str):
    """Lines that refer to ``name``: as a name, an attribute, an imported
    name, a definition or a string constant (``getattr(spans, name)``)."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            or isinstance(node, ast.Constant) and node.value == name
            or isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)
        ):
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_unchecked_frames_only_inside_the_engine(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = sorted(set(references(tree, UNCHECKED_FRAME)))
    if path.name in UNCHECKED_FRAME_USERS:
        assert found
    else:
        assert found == []


def test_guard_flags_unchecked_frame_references():
    tree = ast.parse(
        "from .spans import Frame, _proven_frame\n"
        "from . import spans\n"
        "a = spans._proven_frame(seq)\n"
        "b = getattr(spans, '_proven_frame')\n"
        "c = _proven_frame\n"
        "def _proven_frame(seq):\n"
        "    return Frame(seq)\n"
        "d = proven_frame(seq)\n"
    )
    assert sorted(set(references(tree, UNCHECKED_FRAME))) == [1, 3, 4, 5, 6]
