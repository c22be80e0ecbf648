"""The package imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

import polyfind

SOURCES = sorted(Path(polyfind.__file__).resolve().parent.glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib_or_polyfind():
    assert len(SOURCES) > 10
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"polyfind"}
    }
    assert outside == set()
