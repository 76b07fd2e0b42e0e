"""Source hygiene: every library module uses each name it imports, and every
function defined inside another function is referenced there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cset_transport"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for every import statement, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _nested_defs(node):
    """Functions defined inside ``node``'s body, at any depth, outside classes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        elif not isinstance(child, ast.ClassDef):
            yield from _nested_defs(child)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_nested_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    dead = []
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = {n.id for n in ast.walk(outer) if isinstance(n, ast.Name)}
            dead += [
                f"{path.name}:{f.lineno}: {f.name} in {outer.name}"
                for f in _nested_defs(outer)
                if f.name not in used
            ]
    assert not dead, "nested functions never referenced:\n" + "\n".join(dead)
