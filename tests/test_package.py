"""Properties of the library source as a whole."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import symcover

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(symcover.__file__).resolve().parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
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


def test_no_environment_reads():
    # every setting is an argument or a flag; a value read from the
    # environment would change a call that does not show it
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"environ", "getenv"}:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_bounded_functions_call_themselves():
    # every search is a loop, so no answer depends on the interpreter's
    # stack.  These recurse to depths their inputs bound: one level of
    # union:, n <= UNCONSTRAINED_CAP, one step to the complement degree,
    # and the nesting of a document
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                func = node.func if isinstance(node, ast.Call) else None
                if (isinstance(func, ast.Name) and func.id == fn.name
                        or isinstance(func, ast.Attribute)
                        and func.attr == fn.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"):
                    found.append(f"{path.stem}.{fn.name}")
                    break
    assert sorted(found) == ["graphs._components", "report.render_human",
                             "search._all_graphs", "search._regular_graphs"]


def test_every_raise_names_a_library_error():
    # a caller that catches SymcoverError catches every refusal; only the
    # command line's own exit raises anything else
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else None
            if name not in symcover.errors.__all__ and not (
                    name == "SystemExit"
                    and path.name in ("cli.py", "__main__.py")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_printed_form_reads_edges_back():
    # a Graph is its rows: graphs derived from other graphs are built from
    # rows, so only repr turns the rows back into an edge list
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "edges"):
                callers.append(scope)
            visit(child, scope)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert callers == ["graphs.Graph.__repr__"]


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


# the workflow is read as text: CI installs no YAML parser
def test_workflow_runs_no_inline_python():
    # every check past tier-1 is a committed script under tests/ci/
    assert re.findall(r"python3? +-c\b", WORKFLOW.read_text()) == []


def test_each_ci_script_runs_in_exactly_one_step():
    named = re.findall(r"tests/ci/\w+\.py", WORKFLOW.read_text())
    scripts = [f"tests/ci/{path.name}"
               for path in (ROOT / "tests" / "ci").glob("*.py")]
    assert sorted(named) == sorted(scripts)
