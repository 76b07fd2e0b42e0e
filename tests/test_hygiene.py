"""Source hygiene: every library module parses at the oldest Python the
package declares, uses each name it imports, every function defined inside
another function is referenced there, small tolerances are named once,
``FEAS_TOL`` is read only by the two owners of a solved point's check, the
package exports only public names, and every method and ``self`` attribute
of a library class and every module-level name of a library module has a
reader, and every name the benchmark's tracer wraps exists."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cset_transport"
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


def test_modules_parse_at_the_declared_python_floor():
    # syntax newer than ``requires-python`` fails here, on any newer interpreter
    tomllib = pytest.importorskip("tomllib")
    spec = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    floor = re.fullmatch(r">=\s*3\.(\d+)", spec)
    assert floor, f"requires-python {spec!r} is not of the form >=3.N"
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))


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


def test_small_literals_are_named_tolerances():
    """A float in (0, 1e-3) is a tolerance; it is written only as a
    module-level constant of mm.py (the library's table) or lp.py (the
    solver's)."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named = set()
        if path.name in ("mm.py", "lp.py"):
            named = {id(n.value) for n in tree.body if isinstance(n, ast.Assign)}
        stray += [
            f"{path.name}:{n.lineno}: {n.value!r}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, float)
            and 0 < n.value < 1e-3 and id(n) not in named
        ]
    assert not stray, "tolerance literals outside the tables:\n" + "\n".join(stray)


def test_feas_tol_is_read_only_by_its_owners():
    """``lp.FEAS_TOL`` judges solver output, and two functions own that
    check: ``lp._recheck`` on every row of a solved model, and
    ``transport.optimal_coupling`` on the marginals of a coupling it solves
    with no model.  No other module reads it, so a property a model row
    states is not checked again downstream."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for n in ast.walk(tree):
            if (isinstance(n, ast.Name) and n.id == "FEAS_TOL"
                    or isinstance(n, ast.Attribute) and n.attr == "FEAS_TOL"
                    or isinstance(n, ast.alias) and n.name == "FEAS_TOL"):
                readers.add(path.name)
    assert readers == {"lp.py", "transport.py"}


def test_package_imports_are_exported():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            module = SRC / f"{node.module}.py"
            exported = _exported(ast.parse(module.read_text(encoding="utf-8")))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert not missing, "imported by __init__.py but not in __all__:\n" + "\n".join(missing)


def _parsed():
    """The library's modules and the syntax tree of each library and test
    module, by path."""
    library = sorted(SRC.glob("*.py"))
    paths = library + sorted((SRC.parent.parent / "tests").glob("*.py"))
    return library, {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def _referenced(trees, loads_only):
    """Every attribute name the modules use (only those they read, if
    ``loads_only``), and every string constant, for ``getattr`` or
    ``monkeypatch``."""
    names = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and not (loads_only and isinstance(n.ctx, ast.Store)):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.add(n.value)
    return names


def test_no_unreferenced_methods():
    """Every method of a library class, dunder methods aside, is used
    somewhere in the library or the tests: as an attribute, or as a string
    (for ``getattr`` or ``monkeypatch``)."""
    library, trees = _parsed()
    used = _referenced(trees, loads_only=False)
    unused = [
        f"{path.name}:{f.lineno}: {cls.name}.{f.name}"
        for path in library
        for cls in ast.walk(trees[path]) if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (f.name.startswith("__") and f.name.endswith("__"))
        and f.name not in used
    ]
    assert not unused, "methods never referenced:\n" + "\n".join(unused)


def test_no_unread_attributes():
    """Every attribute a library class sets on ``self`` is read somewhere in
    the library or the tests: as an attribute, or as a string (for
    ``getattr`` or ``monkeypatch``).  Setting one, ``+=`` included, is not
    reading it, so state that has lost its last reader shows up here."""
    library, trees = _parsed()
    read = _referenced(trees, loads_only=True)
    unread = sorted({
        f"{path.name}:{n.lineno}: {cls.name}.{n.attr}"
        for path in library
        for cls in ast.walk(trees[path]) if isinstance(cls, ast.ClassDef)
        for n in ast.walk(cls)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
        and n.attr not in read
    })
    assert not unread, "attributes set but never read:\n" + "\n".join(unread)


def test_no_unread_module_names():
    """Every module-level constant, function and class of a library module,
    dunders aside, is read somewhere in the library or the tests: as a
    name, as an attribute, or as a string (for ``getattr``,
    ``monkeypatch`` or ``__all__``).  Defining or assigning one is not
    reading it, so a constant or helper that has lost its last reader
    shows up here."""
    library, trees = _parsed()
    read = _referenced(trees, loads_only=True)
    for tree in trees.values():
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = []
    for path in library:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{path.name}:{node.lineno}: {name}" for name in names
                       if not (name.startswith("__") and name.endswith("__")) and name not in read]
    assert not unread, "module-level names never read:\n" + "\n".join(unread)


def test_no_unread_parameters():
    """Every parameter of a module-level function or of a method of a
    library module, ``self`` aside, is read in its body (a nested function
    or lambda there may read it).  Nested functions and lambdas are not
    checked: their caller fixes their signature, as ``_least_cost`` fixes
    that of its ``fits``."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        functions += [
            f for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for f in functions:
            args = f.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None
            ]
            read = {n.id for stmt in f.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{f.lineno}: {f.name}({a.arg})"
                       for a in params if a.arg != "self" and a.arg not in read]
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def test_tracer_targets_exist():
    """``perfbench/tracing.py`` wraps library functions by module and name
    (its ``TARGETS``); a name that is gone makes ``perfbench/run.py --trace
    1`` stop with AttributeError, which no other test runs into."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module.__name__}.{attr} ({layer})"
        for layer, modules, attr in tracing.TARGETS
        for module in modules
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, "names the tracer wraps but the library lacks:\n" + "\n".join(missing)
