"""Properties of the library source as a whole."""

from __future__ import annotations

import ast
import importlib
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


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition moved breaks star imports
    modules = [symcover] + [importlib.import_module(f"symcover.{path.stem}")
                            for path in sorted(SOURCE.glob("*.py"))
                            if not path.stem.startswith("__")]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
