"""Properties of the library source as a whole."""

from __future__ import annotations

import ast
from pathlib import Path

import symcover

SOURCE = Path(symcover.__file__).resolve().parent


def test_no_bare_assert():
    # python -O strips assert statements; every check must raise instead
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
