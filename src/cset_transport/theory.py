"""Finitely presented categories ("theories"): parsing, validation, builtins.

A theory is a list of objects, a list of morphism generators with domain
and codomain, and a list of path equations.  Composition is written in
diagrammatic order throughout: the path ``inv.src`` means "apply inv,
then src".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DslSyntaxError, TheoryError

__all__ = [
    "Path",
    "Generator",
    "TheoryPresentation",
    "parse_theory",
    "render_theory",
    "validate_theory",
    "builtin_theory",
    "BUILTIN_THEORY_NAMES",
]


@dataclass(frozen=True)
class Path:
    """A composable word of generator names; empty steps means an identity."""

    dom: str
    steps: tuple[str, ...] = ()

    def __str__(self):
        if not self.steps:
            return f"id({self.dom})"
        return ".".join(self.steps)


@dataclass(frozen=True)
class Generator:
    name: str
    dom: str
    cod: str

    def __str__(self):
        return f"{self.name}: {self.dom} -> {self.cod}"


@dataclass(frozen=True)
class TheoryPresentation:
    name: str
    objects: tuple[str, ...]
    generators: tuple[Generator, ...] = ()
    equations: tuple[tuple[Path, Path], ...] = ()

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise TheoryError(f"undeclared generator {name!r} in theory {self.name}")

    def has_object(self, name: str) -> bool:
        return name in self.objects

    def path_cod(self, p: Path) -> str:
        """Codomain of a path, following generators from ``p.dom``."""
        at = p.dom
        for step in p.steps:
            g = self.generator(step)
            if g.dom != at:
                raise TheoryError(
                    f"path {p} is not composable: {step} expects domain "
                    f"{g.dom}, got {at}"
                )
            at = g.cod
        return at


# -- validation --------------------------------------------------------------


def validate_theory(t: TheoryPresentation) -> None:
    """Check every presentation invariant; raise TheoryError listing all violations."""
    problems = []
    seen_obj = set()
    for ob in t.objects:
        if ob in seen_obj:
            problems.append(f"duplicate object {ob!r}")
        seen_obj.add(ob)
    seen_gen = set()
    for g in t.generators:
        if g.name in seen_gen:
            problems.append(f"duplicate generator {g.name!r}")
        seen_gen.add(g.name)
        if g.dom not in seen_obj:
            problems.append(f"undeclared object {g.dom!r} in generator {g}")
        if g.cod not in seen_obj:
            problems.append(f"undeclared object {g.cod!r} in generator {g}")
    for lhs, rhs in t.equations:
        eqname = f"equation {lhs} = {rhs}"
        sides = []
        for side in (lhs, rhs):
            if side.dom not in seen_obj:
                problems.append(f"undeclared object {side.dom!r} in {eqname}")
                continue
            try:
                for step in side.steps:
                    t.generator(step)
                sides.append((side.dom, t.path_cod(side)))
            except TheoryError as exc:
                problems.append(f"{eqname}: {exc}")
        if len(sides) == 2:
            if sides[0][0] != sides[1][0] or sides[0][1] != sides[1][1]:
                problems.append(f"{eqname}: equation endpoint mismatch")
    if problems:
        raise TheoryError("; ".join(problems))


# -- DSL ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\*|->|[{}(),.:=]")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z|\*\Z")
_KEYWORDS = {"theory", "ob", "hom", "eq", "id"}


def _tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        col = 0
        while col < len(line):
            if line[col].isspace():
                col += 1
                continue
            m = _TOKEN_RE.match(line, col)
            if not m:
                raise DslSyntaxError(f"unexpected character {line[col]!r}", lineno, col + 1)
            tokens.append((m.group(), lineno, col + 1))
            col = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise DslSyntaxError("unexpected end of input", last[1], last[2])
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, line, col = self.next()
        if tok != want:
            raise DslSyntaxError(f"expected {want!r}, got {tok!r}", line, col)
        return tok

    def name(self):
        tok, line, col = self.next()
        if not _NAME_RE.match(tok) or tok in _KEYWORDS:
            raise DslSyntaxError(f"expected a name, got {tok!r}", line, col)
        return tok

    def path(self):
        if self.peek() == "id":
            self.next()
            self.expect("(")
            dom = self.name()
            self.expect(")")
            return Path(dom, ()), None
        steps = [self.name()]
        while self.peek() == ".":
            self.next()
            steps.append(self.name())
        # dom is resolved against the generator table once parsing is done
        return None, tuple(steps)


def parse_theory(text: str) -> TheoryPresentation:
    """Parse the theory DSL and return a validated presentation."""
    p = _Parser(text)
    p.expect("theory")
    name = p.name()
    p.expect("{")
    objects: list[str] = []
    generators: list[Generator] = []
    raw_equations = []
    while p.peek() != "}":
        tok, line, col = p.next()
        if tok == "ob":
            objects.append(p.name())
            while p.peek() == ",":
                p.next()
                objects.append(p.name())
        elif tok == "hom":
            gname = p.name()
            p.expect(":")
            dom = p.name()
            p.expect("->")
            cod = p.name()
            generators.append(Generator(gname, dom, cod))
        elif tok == "eq":
            lhs = p.path()
            p.expect("=")
            rhs = p.path()
            raw_equations.append((lhs, rhs, line, col))
        else:
            raise DslSyntaxError(f"expected 'ob', 'hom' or 'eq', got {tok!r}", line, col)
    p.expect("}")
    if p.peek() is not None:
        tok, line, col = p.next()
        raise DslSyntaxError(f"trailing input {tok!r}", line, col)

    gen_by_name = {g.name: g for g in generators}
    equations = []
    for lhs, rhs, line, col in raw_equations:
        sides = []
        for ident, steps in (lhs, rhs):
            if ident is not None:
                sides.append(ident)
                continue
            first = steps[0]
            if first not in gen_by_name:
                raise DslSyntaxError(f"undeclared generator {first!r}", line, col)
            sides.append(Path(gen_by_name[first].dom, steps))
        equations.append((sides[0], sides[1]))

    t = TheoryPresentation(name, tuple(objects), tuple(generators), tuple(equations))
    validate_theory(t)
    return t


def render_theory(t: TheoryPresentation) -> str:
    """Serialize a presentation to the DSL; inverse of parse_theory."""
    lines = [f"theory {t.name} {{"]
    if t.objects:
        lines.append("  ob " + ", ".join(t.objects))
    for g in t.generators:
        lines.append(f"  hom {g.name}: {g.dom} -> {g.cod}")
    for lhs, rhs in t.equations:
        lines.append(f"  eq {lhs} = {rhs}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- builtin theories --------------------------------------------------------

_BUILTIN_SOURCES = {
    "One": """
        theory One {
          ob *
        }
    """,
    "Two": """
        theory Two {
          ob A, B
        }
    """,
    "Graph": """
        theory Graph {
          ob E, V
          hom src: E -> V
          hom tgt: E -> V
        }
    """,
    "SGraph": """
        theory SGraph {
          ob E, V
          hom src: E -> V
          hom tgt: E -> V
          hom inv: E -> E
          eq inv.inv = id(E)
          eq inv.src = tgt
          eq inv.tgt = src
        }
    """,
    "RGraph": """
        theory RGraph {
          ob E, V
          hom src: E -> V
          hom tgt: E -> V
          hom refl: V -> E
          eq refl.src = id(V)
          eq refl.tgt = id(V)
        }
    """,
    "SRGraph": """
        theory SRGraph {
          ob E, V
          hom src: E -> V
          hom tgt: E -> V
          hom inv: E -> E
          hom refl: V -> E
          eq inv.inv = id(E)
          eq inv.src = tgt
          eq inv.tgt = src
          eq refl.src = id(V)
          eq refl.tgt = id(V)
          eq refl.inv = refl
        }
    """,
    "BGraph": """
        theory BGraph {
          ob U, E, V
          hom src: E -> U
          hom tgt: E -> V
        }
    """,
    "Delta2": """
        theory Delta2 {
          ob T, E, V
          hom e0: T -> E
          hom e1: T -> E
          hom e2: T -> E
          hom v0: E -> V
          hom v1: E -> V
          eq e1.v0 = e0.v0
          eq e2.v0 = e0.v1
          eq e2.v1 = e1.v1
        }
    """,
    "DDS": """
        theory DDS {
          ob *
          hom T: * -> *
        }
    """,
    "ASet": """
        theory ASet {
          ob *, A
          hom attr: * -> A
        }
    """,
    "VGraph": """
        theory VGraph {
          ob E, V, A
          hom src: E -> V
          hom tgt: E -> V
          hom attr: V -> A
        }
    """,
}

BUILTIN_THEORY_NAMES = tuple(_BUILTIN_SOURCES)

_builtin_cache: dict[str, TheoryPresentation] = {}


def builtin_theory(name: str) -> TheoryPresentation:
    """Return one of the stock theories (Graph, SGraph, RGraph, ...)."""
    if name not in _BUILTIN_SOURCES:
        raise TheoryError(
            f"unknown builtin theory {name!r}; choose from {', '.join(BUILTIN_THEORY_NAMES)}"
        )
    if name not in _builtin_cache:
        _builtin_cache[name] = parse_theory(_BUILTIN_SOURCES[name])
    return _builtin_cache[name]
