"""The package is pure Python with no runtime dependencies: every import in
``src/exactspan`` is either from the standard library or relative to the
package.  numpy, sympy and friends may appear in tests and benchmarks only."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "exactspan"
MODULES = sorted(SRC.glob("*.py"))


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
