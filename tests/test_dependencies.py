"""The runtime imports only the standard library, numpy and semigeo itself,
only ``ode`` names the source bank its marches read from, only
``grid_field`` names ``on_planes``, the one read of an input field,
which only ``ExpressionField`` defines, every parameter a function
takes is read, every definition is read by the package, the acceptance
tests or the benchmark, every import is read, no line is longer than
99 characters, the config reader turns text into numbers only in
``_parse_int`` and ``_parse_float``, no function recurses, no code
walks a parsed tree through its nodes' operands, and only ``expr``
makes a FieldExpr or reads its code."""

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
    # and every input is an expression: no second field kind defines the read
    readers = [
        cls.name
        for p in MODULES
        for cls in nodes(p)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "on_planes" for f in cls.body)
    ]
    assert readers == ["ExpressionField"]


def unread_parameters(path):
    """(line, function, parameter) for each parameter its function never reads.

    A method's receiver (``self``, ``cls``) is exempt, since ``super()``
    reads it implicitly, and so is any name starting with ``_``: a
    callback with a fixed signature marks the arguments it ignores so.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    receivers = {
        id(fn.args.args[0])
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.args.args
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            node.id
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for p in params:
            if p.arg not in read and not p.arg.startswith("_") and id(p) not in receivers:
                yield fn.lineno, getattr(fn, "name", "<lambda>"), p.arg


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter no body reads is an option no caller can use
    assert list(unread_parameters(path)) == []


SOURCES = [p for p in MODULES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent
# what a run, a report or the benchmark reads: the package's own modules,
# the acceptance tests and the benchmark harness
READERS = SOURCES + [ROOT / "tests" / "test_acceptance.py"] + sorted(ROOT.glob("perfbench/*.py"))


def definitions(path):
    """(line, name) of each module-level function and class, and each
    public method, a module defines."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.lineno, item.name


def loads(path):
    """Every name a module's code reads, as a variable or as an attribute."""
    for node in nodes(path):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def unreached(defining, reading):
    """(module, line, name) for each definition in ``defining`` whose
    name no module of ``reading`` loads; importing a name is not a read."""
    read = {name for path in reading for name in loads(path)}
    return [
        (path.name, line, name)
        for path in defining
        for line, name in definitions(path)
        if name not in read
    ]


def test_unreached_definitions_are_found(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "def used():\n    return _helper()\n\n"
        "def _helper():\n    return C().m()\n\n"
        "def planted():\n    return 2\n\n"
        "class C:\n    def m(self):\n        return self._hidden()\n"
        "    def _hidden(self):\n        return 0\n"
        "    def planted_method(self):\n        self.planted = 1\n"
    )
    user.write_text("from lib import planted, used\n\nused()\n")
    assert unreached([lib], [lib, user]) == [
        ("lib.py", 7, "planted"),
        ("lib.py", 15, "planted_method"),
    ]


def test_every_public_definition_is_reached():
    # a definition only other tests reach is surface no run, report or
    # benchmark uses
    assert unreached(SOURCES, READERS) == []


def unread_imports(path):
    """(line, name) for each name a module imports and never reads."""
    tree = list(nodes(path))
    read = {n.id for n in tree if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_unread_imports_are_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import csv\nimport os.path\nimport numpy as np\n"
        "from .errors import GridTooCoarse, InvalidSpec\n\n"
        "def f(x):\n    if os.path.exists(x):\n        raise InvalidSpec(np.pi)\n"
    )
    assert sorted(unread_imports(path)) == [(1, "csv"), (4, "GridTooCoarse")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    # __init__ imports to re-export; any other module imports to use
    assert list(unread_imports(path)) == []


MAX_LINE = 99


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lines_fit_the_width(path):
    long = [
        (number, len(line))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == [], f"{path.name}: (line, length) over {MAX_LINE} characters"


def number_reads(path):
    """(top-level definition, builtin) for each ``int`` or ``float`` a call names.

    Both ``int(text)`` and ``map(int, parts)`` count; annotations do not.
    """
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(stmt, "name", "<module>")
        for call in ast.walk(stmt):
            if isinstance(call, ast.Call):
                for node in [call.func, *call.args]:
                    if isinstance(node, ast.Name) and node.id in ("int", "float"):
                        yield owner, node.id


def test_config_reads_numbers_with_one_grammar():
    # a bare int() or float() also reads "٢" and "1_0"; these two check the grammar first
    config = Path(semigeo.__file__).parent / "config.py"
    assert set(number_reads(config)) == {("_parse_int", "int"), ("_parse_float", "float")}


def call_graph(path):
    """Each function or method name in a module -> the names of its own
    functions and methods it calls, by name or as ``self.<name>``.

    A nested function is a node of its own; a lambda's calls count as
    its enclosing function's.
    """
    functions = [fn for fn in nodes(path) if isinstance(fn, ast.FunctionDef)]
    defined = {fn.name for fn in functions}
    graph = {name: set() for name in defined}
    for fn in functions:
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            todo.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Name):
                    graph[fn.name].add(callee.id)
                elif isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    if callee.value.id == "self":
                        graph[fn.name].add(callee.attr)
    return {name: calls & defined for name, calls in graph.items()}


def recursive(graph):
    """Sorted names that can reach themselves through the call graph."""
    found = []
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        if start in seen:
            found.append(start)
    return sorted(found)


def test_call_graph_finds_a_cycle(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def a(x):\n    return b(x)\n\n"
        "def b(x):\n    def inner():\n        return b(x)\n    return inner()\n\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "    def k(self):\n        return [a(i) for i in range(2)]\n"
    )
    assert recursive(call_graph(path)) == ["b", "inner", "m"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_recurses(path):
    # recursion depth would follow the caller's stack, not a fixed rule
    assert recursive(call_graph(path)) == []


# the fields of expr's nodes that hold their operands
OPERANDS = {"left", "right", "operand", "arg"}


def operand_reads(path):
    """(line, attribute) for each read of an attribute named like an operand."""
    for node in nodes(path):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in OPERANDS:
                yield node.lineno, node.attr


def test_operand_reads_are_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("def f(node):\n    node.arg = 1\n    return node.left, node.operand.right\n")
    assert sorted(operand_reads(path)) == [(3, "left"), (3, "operand"), (3, "right")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tree_walk(path):
    # operands reach a program only through the parse loop, which builds
    # it in the order it builds the nodes; nothing walks the tree again
    assert list(operand_reads(path)) == []


def program_layout_uses(path):
    """(line, use) for each call of a name ``FieldExpr`` and each read of
    an attribute ``code``."""
    for node in nodes(path):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "FieldExpr":
                yield node.lineno, "FieldExpr("
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr == "code":
                yield node.lineno, ".code"


def test_program_layout_uses_are_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from . import expr\n\n"
        "def f(e, FieldExpr):\n    e.code = 1\n"
        "    return FieldExpr(e.code), expr.FieldExpr(()), isinstance(e, FieldExpr)\n"
    )
    assert sorted(program_layout_uses(path)) == [(5, ".code"), (5, "FieldExpr("), (5, "FieldExpr(")]


def test_only_expr_lays_out_programs():
    # the instruction forms of FieldExpr.code are expr's alone to decide
    assert [p.name for p in MODULES if list(program_layout_uses(p))] == ["expr.py"]
