"""Checks on the package source itself."""

import ast
from pathlib import Path

import graphsplit


def test_no_runtime_check_relies_on_assert():
    # python -O strips assert statements, so a check written as one is gone
    sources = sorted(Path(graphsplit.__file__).parent.glob("*.py"))
    assert "engine.py" in {path.name for path in sources}
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
