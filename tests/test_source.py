"""Checks on the package source itself."""

import ast
from pathlib import Path

import alignfuse


def test_no_assert_statements():
    # contract checks must raise: `python -O` strips assert statements
    root = Path(alignfuse.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
