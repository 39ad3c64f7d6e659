"""The runtime stays stdlib-only.

Every import in `src/lambada_lab/*.py`, at module level or inside a
function, names a standard-library module or the package itself, so the
simulator runs on a bare CPython.  Tests and the benchmark may use more.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lambada_lab"


def foreign_imports(source: str) -> list[str]:
    """Modules imported by `source` that are neither stdlib nor the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name
        for name in names
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != PACKAGE.name
    ]


def test_checker_flags_foreign_and_keeps_stdlib_and_package_imports():
    source = (
        "import json, numpy.linalg\n"
        "from . import errors\n"
        "from lambada_lab.clock import Sleep\n"
        "def f():\n"
        "    from pyarrow import parquet\n"
    )
    assert foreign_imports(source) == ["numpy.linalg", "pyarrow"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
