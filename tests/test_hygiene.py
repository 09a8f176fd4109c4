"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

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
