"""The runtime imports only the standard library, numpy and semigeo itself,
only ``ode`` names the source bank its marches read from, and only
``grid_field`` names ``on_planes``, the one read of an input field."""

import ast
import sys
from pathlib import Path

import pytest

import semigeo

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "semigeo"}
MODULES = sorted(Path(semigeo.__file__).parent.rglob("*.py"))


def nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def imported_roots(path):
    """Top-level package of every absolute import in a module's source."""
    for node in nodes(path):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "grid_field.py", "curvature.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_stdlib_numpy_and_semigeo_only(path):
    foreign = sorted(set(imported_roots(path)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def names(path):
    """Every identifier a module's code uses, defines, imports or reads as an attribute."""
    for node in nodes(path):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name


def test_only_ode_names_the_source_bank():
    # march_tube builds every march's bank from the grid and options it marches with
    assert [p.name for p in MODULES if "SourceBank" in set(names(p))] == ["ode.py"]


def test_only_grid_field_names_on_planes():
    # Components.dense makes every input field read; the others use its layouts
    assert [p.name for p in MODULES if "on_planes" in set(names(p))] == ["grid_field.py"]
