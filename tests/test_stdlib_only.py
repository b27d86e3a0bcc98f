"""The package stays dependency-free: every module under ``src/cfcolor``
imports only the Python standard library, besides its own modules."""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cfcolor"


def _absolute_imports(path: Path) -> Iterator[tuple[int, str]]:
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module or ""


def test_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"__future__"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = [f"{path.name}:{line}: {name}"
               for path in modules
               for line, name in _absolute_imports(path)
               if name.split(".")[0] not in allowed]
    assert outside == []
