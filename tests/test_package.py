"""Properties of the library source as a whole."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import symcover

SOURCE = Path(symcover.__file__).resolve().parent
MODULES = [importlib.import_module(f"symcover.{path.stem}")
           for path in sorted(SOURCE.glob("*.py"))
           if not path.stem.startswith("__")]


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
    missing = [f"{module.__name__}.{name}" for module in [symcover, *MODULES]
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_no_name_is_exported_by_two_modules():
    # the package star-imports every module, so a second module exporting
    # a name would silently shadow the first
    owners: dict[str, list[str]] = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_exported_callables_are_defined_where_listed():
    # a module lists what it defines, not what it imports
    strays = [f"{module.__name__}.{name}" for module in MODULES
              for name in module.__all__
              if callable(obj := getattr(module, name))
              and obj.__module__ != module.__name__]
    assert strays == []


def test_star_import_binds_exactly_the_package_list():
    namespace: dict = {}
    exec("from symcover import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(symcover.__all__)
    assert len(symcover.__all__) == len(set(symcover.__all__))
