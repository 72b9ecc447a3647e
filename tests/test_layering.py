"""Builders build and suites check.

The modules that build operators (``numerics``, ``pegg_barnett``,
``deformed``, ``evolution``) import nothing from ``report`` or ``suites``,
and check records are made only in ``suites`` and defined only in
``report``. Read from the source with ``ast``, so nothing is imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fdphase"
BUILDERS = ("numerics", "pegg_barnett", "deformed", "evolution")
CHECK_LAYERS = ("report", "suites")


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _imported_modules(tree):
    """Each imported module as its last dotted part ("report" for ``.report``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import report
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[-1]


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_the_package_has_the_layers_named_here():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(BUILDERS) | set(CHECK_LAYERS) <= modules


@pytest.mark.parametrize("module", BUILDERS)
def test_builders_import_no_check_layer(module):
    imported = set(_imported_modules(_tree(module)))
    assert not imported & set(CHECK_LAYERS), f"{module} imports {imported & set(CHECK_LAYERS)}"


@pytest.mark.parametrize(
    "module",
    sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem not in CHECK_LAYERS),
)
def test_check_records_live_in_suites_and_report_only(module):
    assert "CheckRecord" not in set(_names(_tree(module)))


def _record_constructions(tree):
    """The innermost enclosing function of each ``CheckRecord(...)`` call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "CheckRecord":
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_check_records_are_constructed_in_one_loop_only():
    # Every record is made from a suite row by suites._record; report only
    # defines the class, and no other module constructs one.
    made = {path.stem: _record_constructions(_tree(path.stem)) for path in PACKAGE.glob("*.py")}
    assert {module: where for module, where in made.items() if where} == {"suites": ["_record"]}
