"""Concrete integer transition systems: linear guards, linear or havoc updates.

This is the input language of the abstractor. Transitions carry a conjunction
of linear relational guards and simultaneous assignments; a variable not
mentioned keeps its value, and `x := ?` forgets it (havoc).
"""

from __future__ import annotations

import re
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Container, Mapping

from dcbound.dcp import DcpError, Diagnostic, Source, check_structure, read_source

__all__ = [
    "LinExpr",
    "HAVOC",
    "Relation",
    "ConcreteTransition",
    "ConcreteProgram",
    "parse_program",
    "parse_linexpr",
]


@dataclass(frozen=True)
class LinExpr:
    """const + sum of coeff*name, with zero coefficients absent."""

    const: int = 0
    coeffs: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(const: int = 0, **coeffs: int) -> "LinExpr":
        return LinExpr.from_mapping(const, coeffs)

    @staticmethod
    def from_mapping(const: int, coeffs: Mapping[str, int]) -> "LinExpr":
        items = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
        return LinExpr(const, items)

    @property
    def names(self) -> set[str]:
        return {n for n, _ in self.coeffs}

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def add(self, other: "LinExpr") -> "LinExpr":
        acc = dict(self.coeffs)
        for n, c in other.coeffs:
            acc[n] = acc.get(n, 0) + c
        return LinExpr.from_mapping(self.const + other.const, acc)

    def scale(self, k: int) -> "LinExpr":
        return LinExpr.from_mapping(self.const * k,
                                    {n: c * k for n, c in self.coeffs})

    def sub(self, other: "LinExpr") -> "LinExpr":
        return self.add(other.scale(-1))

    def drop_const(self) -> "LinExpr":
        return LinExpr(0, self.coeffs)

    def substitute(self, mapping: Mapping[str, "LinExpr"]) -> "LinExpr":
        out = LinExpr(self.const)
        for n, c in self.coeffs:
            out = out.add(mapping.get(n, LinExpr.of(0, **{n: 1})).scale(c))
        return out

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.const + sum(c * env[n] for n, c in self.coeffs)

    def name(self) -> str:
        """Canonical compact form: positive terms, negative terms, constant;
        used for norm identity display and keep-names variables."""
        if self.is_const:
            return f"({self.const})"
        pos = [(n, c) for n, c in self.coeffs if c > 0]
        neg = [(n, c) for n, c in self.coeffs if c < 0]
        parts: list[str] = []
        for n, c in pos + neg:
            mag = f"{abs(c)}*{n}" if abs(c) != 1 else n
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(f"+{mag}" if c > 0 else f"-{mag}")
        if self.const > 0:
            parts.append(f"+{self.const}")
        elif self.const < 0:
            parts.append(f"-{-self.const}")
        return "(" + "".join(parts) + ")"

    def __str__(self) -> str:
        return self.name()


class _Havoc:
    def __repr__(self) -> str:
        return "HAVOC"


HAVOC = _Havoc()


_REL_FACTS = {
    # relation -> list of (swap operands, extra constant) facts d > 0 with
    # d = left - right + extra
    ">":  [(False, 0)],
    ">=": [(False, 1)],
    "<":  [(True, 0)],
    "<=": [(True, 1)],
    "=":  [(False, 1), (True, 1)],
    "==": [(False, 1), (True, 1)],
}


@dataclass(frozen=True)
class Relation:
    op: str
    lhs: LinExpr
    rhs: LinExpr

    def holds(self, env: Mapping[str, int]) -> bool:
        a, b = self.lhs.evaluate(env), self.rhs.evaluate(env)
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                "=": a == b, "==": a == b}[self.op]

    def facts(self) -> list[LinExpr]:
        """Linear expressions d with d > 0 whenever the relation holds."""
        out = []
        for swap, extra in _REL_FACTS[self.op]:
            a, b = (self.rhs, self.lhs) if swap else (self.lhs, self.rhs)
            out.append(a.sub(b).add(LinExpr(extra)))
        return out

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class ConcreteTransition:
    id: str
    source: str
    target: str
    guard: tuple[Relation, ...]
    updates: tuple[tuple[str, LinExpr | _Havoc], ...]
    line: int = field(default=0, compare=False)  # source position only

    def update_map(self) -> dict[str, LinExpr | _Havoc]:
        return dict(self.updates)

    def guard_holds(self, env: Mapping[str, int]) -> bool:
        return all(r.holds(env) for r in self.guard)


@dataclass(frozen=True)
class ConcreteProgram:
    locations: tuple[str, ...]
    transitions: tuple[ConcreteTransition, ...]
    entry: str
    exit: str
    params: tuple[str, ...]
    variables: tuple[str, ...]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# `dcp.read_source` reads the tag line `prog` and the declarations (`params`,
# `vars`, `entry`, `exit`); the transition lines are this module's:
#
#   trans t1: l1 -> l2 when i < l { i := i + 1; }
#   trans t2: l2 -> l3 { e := i; }           # unmentioned vars keep value
#   trans t3: l3 -> l4 { k := ?; }           # havoc

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TRANS_RE = re.compile(
    rf"^trans\s+(?P<id>{_IDENT})\s*:\s*(?P<src>{_IDENT})\s*->\s*(?P<tgt>{_IDENT})"
    r"\s*(?:when\s+(?P<guard>[^{]*?))?\s*\{(?P<body>.*)\}\s*$"
)
_ASSIGN_RE = re.compile(rf"^(?P<lhs>{_IDENT})\s*:=\s*(?P<rhs>.*)$")
_REL_RE = re.compile(r"(<=|>=|==|<|>|=)")
_TERM_RE = re.compile(rf"^\s*(?:(?P<coef>\d+)\s*\*\s*)?(?P<name>{_IDENT})\s*$|^\s*(?P<int>-?\d+)\s*$")


def parse_linexpr(text: str, known: Container[str], lineno: int,
                  diags: list[Diagnostic]) -> LinExpr:
    """Sum/difference of INT, IDENT and INT*IDENT terms."""
    s = text.strip()
    if not s:
        diags.append(Diagnostic(lineno, 1, "empty expression"))
        return LinExpr()
    # split into signed chunks
    chunks: list[tuple[int, str]] = []
    sign = 1
    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start = i
    while i <= len(s):
        if i == len(s) or (s[i] in "+-" and i > start):
            chunks.append((sign, s[start:i]))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
                start = i + 1
        i += 1
    const = 0
    coeffs: dict[str, int] = {}
    for sg, chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m:
            diags.append(Diagnostic(lineno, 1, f"cannot parse term {chunk.strip()!r}"))
            continue
        if m.group("int") is not None:
            const += sg * int(m.group("int"))
            continue
        name = m.group("name")
        if name not in known:
            diags.append(Diagnostic(lineno, 1, f"unknown identifier {name!r}"))
            continue
        coef = int(m.group("coef")) if m.group("coef") else 1
        coeffs[name] = coeffs.get(name, 0) + sg * coef
    return LinExpr.from_mapping(const, coeffs)


def _transition(m: re.Match, lineno: int, raw: str,
                src: Source) -> ConcreteTransition:
    diags = src.diags
    known = ChainMap(src.consts, src.variables)
    guard: list[Relation] = []
    for g in [p.strip() for p in (m.group("guard") or "").split(",") if p.strip()]:
        parts = _REL_RE.split(g, maxsplit=1)
        if len(parts) != 3:
            diags.append(Diagnostic(lineno, 1, f"cannot parse condition {g!r}"))
            continue
        lhs = parse_linexpr(parts[0], known, lineno, diags)
        rhs = parse_linexpr(parts[2], known, lineno, diags)
        guard.append(Relation(parts[1], lhs, rhs))
    updates: list[tuple[str, LinExpr | _Havoc]] = []
    assigned: set[str] = set()
    for stmt in [p.strip() for p in m.group("body").split(";") if p.strip()]:
        am = _ASSIGN_RE.match(stmt)
        if not am:
            diags.append(Diagnostic(lineno, 1, f"cannot parse update {stmt!r}"))
            continue
        lhs = am.group("lhs")
        if lhs in src.consts:
            diags.append(Diagnostic(lineno, 1,
                                    f"parameter {lhs!r} cannot be assigned"))
            continue
        if lhs not in src.variables:
            diags.append(Diagnostic(lineno, 1, f"unknown variable {lhs!r}"))
            continue
        if lhs in assigned:
            diags.append(Diagnostic(
                lineno, 1, f"variable {lhs!r} assigned twice on one transition"))
            continue
        assigned.add(lhs)
        rhs_txt = am.group("rhs").strip()
        if rhs_txt == "?":
            updates.append((lhs, HAVOC))
        else:
            updates.append((lhs, parse_linexpr(rhs_txt, known, lineno, diags)))
    return ConcreteTransition(
        id=m.group("id"), source=m.group("src"), target=m.group("tgt"),
        guard=tuple(guard), updates=tuple(updates), line=lineno)


def parse_program(text: str) -> ConcreteProgram:
    """Parse and check; raises DcpError carrying positioned diagnostics."""
    src = read_source(text, "prog", _TRANS_RE, _transition)
    prog = ConcreteProgram(
        locations=tuple(sorted(src.locations)),
        transitions=tuple(sorted(src.transitions, key=lambda t: t.id)),
        entry=src.entry, exit=src.exit,
        params=tuple(sorted(src.consts)), variables=tuple(sorted(src.variables)))
    diags = check_structure(prog, prog.params)
    if diags:
        raise DcpError(diags)
    return prog
