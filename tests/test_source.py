"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lcdgraph"


def unused_imports(source: str) -> list:
    """Names that a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport numpy as np\nfrom math import pi\nnp.pi\n") == [
        "os (line 1)",
        "pi (line 3)",
    ]


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py")),
    ids=lambda p: p.name if p.parent == SRC else p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


# The functions that draw from a generator.  Each construction draws its
# randomness in one of them, for one graph and for a batch alike.
DRAW_FUNCTIONS = {"sequential_choices", "_lemire_rows", "sample_pairs", "_urn_draw"}


def generator_callers(source: str) -> set:
    """The top-level functions of a module that call a method of ``rng`` or
    ``bits``; a call outside any function is named by its line."""
    callers = set()
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id in ("rng", "bits")):
                callers.add(getattr(node, "name", f"line {sub.lineno}"))
    return callers


def test_generator_callers_are_found():
    source = ("def f(rng):\n    return rng.random(3)\n"
              "def g(rng):\n    return rng.bit_generator\n"
              "K = {'h': lambda rng: rng.integers(2)}\n")
    assert generator_callers(source) == {"f", "line 5"}


def test_only_the_draw_functions_call_a_generator():
    callers = set().union(*(generator_callers((SRC / name).read_text())
                            for name in ("processes.py", "lcd.py")))
    assert callers == DRAW_FUNCTIONS


def top_level_names(source: str) -> list:
    """The functions, classes and constants a module defines at top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def names_read(source: str) -> set:
    """Every name a module reads, looks up as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def method_names(source: str) -> list:
    """The methods and properties that a module's top-level classes define,
    dunder methods aside.  Dataclass fields are not counted: a report may
    read them only through ``asdict``."""
    return [
        item.name
        for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
    ]


def test_top_level_names_are_found():
    source = "X = 1\nY: int = 2\ndef f():\n    return X\nclass C:\n    pass\n"
    assert top_level_names(source) == ["X", "Y", "f", "C"]
    assert {"X"} <= names_read(source) and not {"Y", "f", "C"} & names_read(source)


def test_method_names_are_found():
    source = ("class C:\n    x: int = 0\n    def __post_init__(self):\n        pass\n"
              "    def m(self):\n        pass\n    @property\n    def p(self):\n"
              "        return self.x\n"
              "def f():\n    pass\n")
    assert method_names(source) == ["m", "p"]


def test_every_top_level_name_is_read():
    # a definition, method or property that no module and no test names is
    # dead code
    files = sorted(SRC.glob("*.py")) + sorted(ROOT.glob("tests/*.py"))
    read = set().union(*(names_read(p.read_text()) for p in files))
    unread = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in top_level_names(path.read_text()) + method_names(path.read_text())
        if name not in read
    ]
    assert unread == []


def callers_of(source: str, callee: str) -> set:
    """The functions of a module that call ``callee`` by name, a method as
    ``Class.method``; a call outside any function is named by its line."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == callee):
            callers.add(scope or f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return callers


def test_callers_are_found():
    source = ("class C:\n    def __post_init__(self):\n        f(1)\n"
              "def g():\n    return [f(x) for x in (1, 2)]\n"
              "def h():\n    return f\n"
              "f(3)\n")
    assert callers_of(source, "f") == {"C.__post_init__", "g", "line 8"}


def test_the_point_cap_is_checked_where_a_run_is_described():
    # generate and the replicate loops rely on ProcessParams; only a batch,
    # whose points grow with its samples, checks the cap again
    callers = set().union(*(callers_of(path.read_text(), "_check_points")
                            for path in sorted(SRC.glob("*.py"))))
    assert callers == {"ProcessParams.__post_init__", "batch_total_degrees"}


def start_imports(source: str) -> set:
    """The modules a module imports when it is loaded, outside any function;
    a module of this package as ``.name``."""
    modules = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                modules.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module:
                modules.add("." * child.level + child.module)
            elif isinstance(child, ast.ImportFrom):  # from . import name
                modules.update("." * child.level + alias.name for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return {"." + m.removeprefix("lcdgraph.") if m.startswith("lcdgraph.") else m
            for m in modules}


def test_start_imports_are_found():
    source = ("import numpy as np\nfrom . import io\nfrom .lcd import x\n"
              "from lcdgraph.processes import y\nif True:\n    import csv\n"
              "def f():\n    import json\n")
    assert start_imports(source) == {"numpy", ".io", ".lcd", ".processes", "csv"}


# What ``cli.py`` may import when it is loaded: what building the parser
# needs.  Every other module is imported when a command needs it, through
# ``cli._BINDINGS`` or inside the function that uses it, so that ``import
# lcdgraph.cli`` and ``build_parser()`` start fast.
CLI_START_IMPORTS = {"argparse", "functools", "importlib", "math", "os", "sys", "time",
                     "pathlib", ".errors", ".__version__"}


def test_cli_start_imports_are_allowlisted():
    assert start_imports((SRC / "cli.py").read_text()) <= CLI_START_IMPORTS


# What the exact side may import when it is loaded: the standard library it
# uses and the package's own stdlib-only modules, so that ``oracle`` and
# ``import lcdgraph.exact`` start without numpy or ``dataclasses`` (which
# loads ``inspect``).
EXACT_START_IMPORTS = {"bisect", "collections", "fractions", "functools", "itertools", "math",
                       "struct", "sys", ".errors", ".oracles"}


@pytest.mark.parametrize("name", ["exact.py", "oracles.py"])
def test_exact_start_imports_are_allowlisted(name):
    assert start_imports((SRC / name).read_text()) <= EXACT_START_IMPORTS


# What ``io`` may import when it is loaded: numpy and ``csv`` wait for the
# writers that use them, so that ``experiment region`` and its replay, which
# write JSON and CSV alone, start without numpy.
IO_START_IMPORTS = {"__future__", "json", "pathlib", ".errors"}


def test_io_start_imports_are_allowlisted():
    assert start_imports((SRC / "io.py").read_text()) <= IO_START_IMPORTS


def missing_binds(source: str) -> list:
    """``function: name`` for each name of a ``_BINDINGS`` table that a
    top-level function of ``source`` reads, itself or through an entry of a
    top-level table that it calls (``_ORACLES[...](args)``), unless the
    function's first statement, after its docstring, is a ``_bind`` of the
    name's module."""
    tree = ast.parse(source)
    tables = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    home = {name: module for module, names in ast.literal_eval(tables["_BINDINGS"]).items()
            for name in names}

    def reads(node) -> set:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}

    missing = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        names = reads(node).union(*(
            reads(tables[call.func.value.id]) for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Subscript)
            and isinstance(call.func.value, ast.Name) and call.func.value.id in tables))
        body = node.body[1:] if ast.get_docstring(node) else node.body
        first = body[0].value if body and isinstance(body[0], ast.Expr) else None
        bound = set()
        if isinstance(first, ast.Call) and getattr(first.func, "id", None) == "_bind":
            bound = set(ast.literal_eval(first.args[0]))
        missing += sorted(f"{node.name}: {name}" for name in names
                          if name in home and home[name] not in bound)
    return missing


def test_missing_binds_are_found():
    source = ("_BINDINGS = {'.a': {'x'}, '.b': {'y', 'z'}}\n"
              "T = {'k': lambda: z}\n"
              "def f():\n    '''Doc.'''\n    _bind(('.a',))\n    return x + y\n"
              "def g():\n    return T['k']()\n"
              "def h():\n    return tuple(T)\n"
              "def i():\n    w = 1\n    _bind(('.a',))\n    return x + w\n")
    assert missing_binds(source) == ["f: y", "g: z", "i: x"]


def test_every_cli_function_binds_what_it_reads():
    # tests in one process share cli's globals, so a function that reads a
    # name it does not bind passes whenever an earlier test bound the module
    assert missing_binds((SRC / "cli.py").read_text()) == []
