"""Static checks on the package source."""

import argparse
import ast
import functools
import importlib
import importlib.util
import inspect
import re
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

from unicusp import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "unicusp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    """Every name read in the module, quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def test_the_check_sees_a_stale_import():
    tree = ast.parse("import os\nfrom a import b as c, d, e\nx: 'list[d]' = 'e'\n")
    assert set(_imported(tree)) - _referenced(tree) == {"os", "c", "e"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    stale = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert not stale, f"{path.name} imports names it never uses: {', '.join(stale)}"


def _local_package_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports from this package inside a function body."""
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else ["unicusp"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "unicusp" for name in names):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_function_local_package_import():
    tree = ast.parse(
        "from . import a\n"
        "def f():\n"
        "    import json\n"
        "    from .poly import X\n"
        "    def g():\n"
        "        import unicusp.curves\n"
        "class C:\n"
        "    def h(self):\n"
        "        from unicusp import poly\n"
    )
    assert _local_package_imports(tree) == [4, 6, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _local_package_imports(tree)
    assert not lines, f"{path.name} imports from the package inside a function (lines {lines})"


# -- every definition has a reference -------------------------------------

ROOT = SRC.parents[1]
# decorators that register the function they wrap, so that it is called
# through a table, never by name
REGISTERING = {"_curve", "_formula"}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _definitions(tree: ast.Module) -> list[tuple[str, bool, int]]:
    """(name, is a method or property, line) of every def that needs a
    reference: dunders and registered builders are exempt."""
    out = []

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                registered = any(_decorator_name(d) in REGISTERING for d in child.decorator_list)
                if not dunder and not registered:
                    out.append((child.name, in_class, child.lineno))
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _names_and_attributes(trees) -> tuple[set[str], set[str]]:
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _unreferenced(tree: ast.Module, names: set[str], attrs: set[str]) -> list[tuple[str, int]]:
    """The defs of the module that nothing reads: a method or property
    counts only through attribute access, a function by name or attribute."""
    return [
        (name, line)
        for name, is_method, line in _definitions(tree)
        if name not in attrs and (is_method or name not in names)
    ]


def test_the_check_sees_an_unreferenced_definition():
    tree = ast.parse(
        "def by_name(): pass\n"
        "def by_attribute(): pass\n"
        "def stale(): pass\n"
        "@_curve('c')\n"
        "def built(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def called(self): pass\n"
        "    def named_only(self): pass\n"
        "    @property\n"
        "    def prop(self): pass\n"
        "    def orphan(self):\n"
        "        def inner(): pass\n"
        "        return inner\n"
        "by_name(); mod.by_attribute; K().called(); named_only; K().prop\n"
    )
    names, attrs = _names_and_attributes([tree])
    assert _unreferenced(tree, names, attrs) == [("stale", 3), ("named_only", 9), ("orphan", 12)]


@functools.cache
def _read_anywhere() -> tuple[set[str], set[str]]:
    """Names and attributes read in src/, tests/ and perfbench/."""
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    return _names_and_attributes(ast.parse(p.read_text(), filename=str(p)) for p in paths)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    names, attrs = _read_anywhere()
    stale = _unreferenced(ast.parse(path.read_text(), filename=str(path)), names, attrs)
    assert not stale, f"{path.name} defines what nothing references: " + ", ".join(
        f"{name} (line {line})" for name, line in stale
    )


# Definitions that no module of the package reads, kept for readers outside
# it: a method that the README lists as public, and the two functions that
# perfbench's tracer looks up by name.
READ_OUTSIDE_SRC = {
    ("poly.py", "lead_coeff"),
    ("uniroots.py", "resultant_q"),
    ("uniroots.py", "newton_interpolate"),
}


def _unread_outside_src(names, texts) -> list[str]:
    """The names that no text mentions as a whole word."""
    return sorted(name for name in names if not any(re.search(rf"\b{name}\b", t) for t in texts))


def test_the_check_sees_a_kept_name_that_nothing_outside_reads():
    texts = ["ur.resultant_q(a, b)", "`lead_coeff`", "_newton_interpolate_ref"]
    names = {"resultant_q", "lead_coeff", "newton_interpolate"}
    assert _unread_outside_src(names, texts) == ["newton_interpolate"]


def test_every_kept_name_is_read_outside_src():
    # this file names every kept name, so it does not count as a reader
    paths = [p for d in ("tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    texts = [p.read_text() for p in paths if p.resolve() != Path(__file__).resolve()]
    texts.append((ROOT / "README.md").read_text())
    unread = _unread_outside_src({name for _, name in READ_OUTSIDE_SRC}, texts)
    assert not unread, "kept for a reader outside src/ that is gone: " + ", ".join(unread)


def _unresolved(targets) -> list[str]:
    """The names module.attr of the targets that are no callable of their
    home module, unicusp.<module>; attr may name a method, Class.method."""
    out = []
    for t in targets:
        obj = importlib.import_module(f"unicusp.{t.module}")
        for part in t.attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            out.append(f"{t.module}.{t.attr}")
    return out


def test_the_check_sees_a_target_that_is_gone():
    targets = [
        SimpleNamespace(module=module, attr=attr)
        for module, attr in (("poly", "Poly.substitute"), ("resolution", "blowup_records"), ("curves", "Poly.gone"))
    ]
    assert _unresolved(targets) == ["resolution.blowup_records", "curves.Poly.gone"]


def test_every_perfbench_target_resolves(monkeypatch):
    # perfbench's tracer looks its targets up by name when a traced run
    # starts; a name that moves or goes fails here, not only there.  Its
    # dataclasses need the module in sys.modules while it loads.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) > 20
    missing = _unresolved(tracing.TARGETS)
    assert not missing, "perfbench traces names that are gone: " + ", ".join(missing)


def _package_imports(trees) -> set[str]:
    """The names that the modules import from the package itself."""
    return {
        alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


def test_the_check_counts_a_package_import_as_a_read():
    tree = ast.parse("from .a import f, g as h\nfrom math import k\n")
    assert _package_imports([tree]) == {"f", "g"}


@functools.cache
def _read_in_src() -> tuple[set[str], set[str]]:
    """Names and attributes read in src/, package imports included."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    names, attrs = _names_and_attributes(trees)
    return names | _package_imports(trees), attrs


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_read_in_src(path):
    names, attrs = _read_in_src()
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = {name for module, name in READ_OUTSIDE_SRC if module == path.name}
    assert kept <= {name for name, _, _ in _definitions(tree)}, "a kept name is gone"
    stale = [(name, line) for name, line in _unreferenced(tree, names, attrs) if name not in kept]
    assert not stale, f"{path.name} defines what nothing in src/ reads: " + ", ".join(
        f"{name} (line {line})" for name, line in stale
    )


# -- every parameter is read ------------------------------------------------


def _unread_parameters(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(function, parameter, line) for each parameter that its function's
    body never reads; self, cls and the registered builders, which share
    one signature, are exempt."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(_decorator_name(d) in REGISTERING for d in fn.decorator_list):
            continue
        args = fn.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        out += [
            (fn.name, a.arg, a.lineno)
            for a in params
            if a is not None and a.arg not in ("self", "cls") and a.arg not in read
        ]
    return out


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, *rest, c=1, **kw):\n"
        "    def inner(d):\n"
        "        return a + d\n"
        "    b = 2\n"
        "    return inner(kw)\n"
        "class K:\n"
        "    def m(self, e):\n"
        "        return lambda: e\n"
        "    @classmethod\n"
        "    def n(cls, f):\n"
        "        pass\n"
        "@_curve('c')\n"
        "def built(ps):\n"
        "    return 1\n"
    )
    assert _unread_parameters(tree) == [("f", "b", 1), ("f", "rest", 1), ("f", "c", 1), ("n", "f", 10)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = _unread_parameters(ast.parse(path.read_text(), filename=str(path)))
    assert not unread, f"{path.name} has parameters that nothing reads: " + ", ".join(
        f"{arg} of {name} (line {line})" for name, arg, line in unread
    )


# -- every CLI flag is read -------------------------------------------------


def _read_off_args(*functions) -> set[str]:
    """Each attribute that the functions read as args.<name>."""
    trees = [ast.parse(textwrap.dedent(inspect.getsource(fn))) for fn in functions]
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def _unread_flags(parser: argparse.ArgumentParser, emit) -> list[str]:
    """'command: dest' for each option of a subcommand that neither its
    func nor `emit` reads as args.<dest>."""
    [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    out = []
    for name, sub in subs.choices.items():
        read = _read_off_args(sub.get_default("func"), emit)
        out += [
            f"{name}: {a.dest}"
            for a in sub._actions
            if a.option_strings and a.dest != "help" and a.dest not in read
        ]
    return out


def test_the_check_sees_an_unread_flag():
    def cmd(args):
        return args.used

    def emit(args, payload, lines):
        return args.shown

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers().add_parser("c")
    for flag in ("--used", "--shown", "--stale"):
        sub.add_argument(flag)
    sub.set_defaults(func=cmd)
    assert _unread_flags(parser, emit) == ["c: stale"]


def test_every_cli_flag_is_read():
    stale = _unread_flags(cli._build_parser(), cli._emit)
    assert not stale, "flags that their command never reads: " + ", ".join(stale)


def _export_mismatch(tree: ast.Module) -> set[str]:
    """The names in only one of `__all__` and the names the module imports."""
    (exported,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    return set(exported) ^ set(_imported(tree))


def test_the_check_sees_a_stale_export():
    tree = ast.parse("from .a import b, c\n__all__ = ['b', 'tangent_line_at']\n")
    assert _export_mismatch(tree) == {"c", "tangent_line_at"}


# -- every export has a reader ----------------------------------------------

# The classes that the surface returns or raises: a caller meets them
# through what hands them out, and needs no name to import.
RETURNED_OR_RAISED = {
    "IrrationalLocusError",
    "ClassificationReport",
    "GraphError",
    "Completion",
    "FiberConfig",
    "CremonaMap",
    "CorpusEntry",
}


def _exports_without_reader(exported, texts) -> list[str]:
    """The exported names, less the returned or raised classes, that no
    text mentions as a whole word."""
    return _unread_outside_src(set(exported) - RETURNED_OR_RAISED, texts)


def test_the_check_sees_an_export_that_nothing_reads():
    texts = ["from unicusp import classify_kodaira", "`germ_at_point`"]
    exported = ["classify", "classify_kodaira", "germ_at", "CremonaMap"]
    assert _exports_without_reader(exported, texts) == ["classify", "germ_at"]


def test_every_export_has_a_reader():
    # An export is read by the command line, a README workflow, the
    # acceptance gate or perfbench; anything else is kept only for tests.
    import unicusp

    paths = [ROOT / "README.md", SRC / "cli.py", ROOT / "tests" / "test_acceptance.py"]
    texts = [p.read_text() for p in paths + sorted((ROOT / "perfbench").glob("*.py"))]
    unread = _exports_without_reader(unicusp.__all__, texts)
    assert not unread, "exported, but no reader outside the tests: " + ", ".join(unread)


def test_the_package_exports_what_it_imports():
    import unicusp

    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not _export_mismatch(tree)
    assert len(set(unicusp.__all__)) == len(unicusp.__all__)
    namespace: dict = {}
    exec("from unicusp import *", namespace)
    assert set(unicusp.__all__) <= set(namespace)
