"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

import cycloforge

PACKAGE = Path(cycloforge.__file__).parent


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []
