"""Concrete integer transition systems: linear guards, linear or havoc updates.

This is the input language of the abstractor. Transitions carry a conjunction
of linear relational guards and simultaneous assignments; a variable not
mentioned keeps its value, and `x := ?` forgets it (havoc).
"""

from __future__ import annotations

import re
from collections import ChainMap
from collections.abc import Container, Mapping

from dcbound.dcp import (DcpError, Diagnostic, Source, check_structure, parts_with_columns,
                         read_source)
from dcbound.record import Frozen

__all__ = [
    "LinExpr",
    "HAVOC",
    "Relation",
    "ConcreteTransition",
    "ConcreteProgram",
    "parse_program",
    "parse_linexpr",
]


class LinExpr(Frozen):
    """const + sum of coeff*name, with zero coefficients absent."""

    def __init__(self, const: int = 0, coeffs: tuple[tuple[str, int], ...] = ()):
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "coeffs", coeffs)

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
        const, acc = self.const, {}
        for n, c in self.coeffs:
            e = mapping.get(n)
            if e is None:
                acc[n] = acc.get(n, 0) + c
            else:
                const += c * e.const
                for m, d in e.coeffs:
                    acc[m] = acc.get(m, 0) + c * d
        return LinExpr.from_mapping(const, acc)

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


class Relation(Frozen):
    def __init__(self, op: str, lhs: LinExpr, rhs: LinExpr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

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


class ConcreteTransition(Frozen):
    """`line` is the source position only: equality and hash leave it out."""

    def __init__(self, id: str, source: str, target: str, guard: tuple[Relation, ...],
                 updates: tuple[tuple[str, LinExpr | _Havoc], ...], line: int = 0):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "updates", updates)
        object.__setattr__(self, "line", line)

    @property
    def _key(self) -> tuple:
        return (self.id, self.source, self.target, self.guard, self.updates)

    def update_map(self) -> dict[str, LinExpr | _Havoc]:
        return dict(self.updates)

    def guard_holds(self, env: Mapping[str, int]) -> bool:
        return all(r.holds(env) for r in self.guard)


class ConcreteProgram(Frozen):
    def __init__(self, locations: tuple[str, ...],
                 transitions: tuple[ConcreteTransition, ...], entry: str, exit: str,
                 params: tuple[str, ...], variables: tuple[str, ...]):
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "exit", exit)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "variables", variables)


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
#
# After an optional leading sign, each match of `_CHUNK_RE` is one term of a
# linear expression and the sign after it. A term is its first character
# plus all up to the next sign, so `a+-3` reads the term -3.

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TRANS_RE = re.compile(
    rf"^trans\s+(?P<id>{_IDENT})\s*:\s*(?P<src>{_IDENT})\s*->\s*(?P<tgt>{_IDENT})"
    r"\s*(?:when\s+(?P<guard>[^{]*?))?\s*\{(?P<body>.*)\}\s*$"
)
_ASSIGN_RE = re.compile(rf"^(?P<lhs>{_IDENT})\s*:=\s*(?P<rhs>.*)$")
_REL_RE = re.compile(r"(<=|>=|==|<|>|=)")
_CHUNK_RE = re.compile(r"\s*([+-]?)([^+-]*)([+-]?)")
_TERM_RE = re.compile(rf"^\s*(?:(?P<coef>\d+)\s*\*\s*)?(?P<name>{_IDENT})\s*$|^\s*(?P<int>\d+)\s*$")


def parse_linexpr(text: str, known: Container[str], lineno: int,
                  diags: list[Diagnostic], col: int = 1) -> LinExpr:
    """Sum/difference of INT, IDENT and INT*IDENT terms, each with an optional
    sign. `text` starts at column `col`; a diagnostic gives the column where
    its term starts (for a missing term, of what stands in its place)."""
    s = text.strip()
    col += len(text) - len(text.lstrip())  # the column of s[0]
    if not s:
        diags.append(Diagnostic(lineno, col, "empty expression"))
        return LinExpr()
    const = 0
    coeffs: dict[str, int] = {}
    sign, pos = 1, 0
    if s[0] in "+-":
        sign, pos = (-1 if s[0] == "-" else 1), 1
    while True:
        m = _CHUNK_RE.match(s, pos)
        unary, chunk, op = m.groups()
        if unary == "-":
            sign = -sign
        t = _TERM_RE.match(chunk)
        at = col + m.end(2) - len(chunk.lstrip())
        if not t:
            diags.append(Diagnostic(lineno, at, f"cannot parse term {chunk.strip()!r}"
                                    if chunk.strip() else f"missing term in {s!r}"))
        elif t["int"] is not None:
            const += sign * int(t["int"])
        elif t["name"] not in known:
            diags.append(Diagnostic(lineno, at, f"unknown identifier {t['name']!r}"))
        else:
            coeffs[t["name"]] = coeffs.get(t["name"], 0) + sign * int(t["coef"] or 1)
        if not op:
            return LinExpr.from_mapping(const, coeffs)
        sign, pos = (-1 if op == "-" else 1), m.end()


def _transition(m: re.Match, lineno: int, raw: str,
                src: Source) -> ConcreteTransition:
    diags = src.diags
    known = ChainMap(src.consts, src.variables)
    base = len(raw) - len(raw.lstrip()) + 1  # the column where m's text starts
    guard: list[Relation] = []
    for col, g in parts_with_columns(m.group("guard") or "", ",", base + m.start("guard")):
        rel = _REL_RE.search(g)
        if not rel:
            diags.append(Diagnostic(lineno, col, f"cannot parse condition {g!r}"))
            continue
        lhs = parse_linexpr(g[:rel.start()], known, lineno, diags, col)
        rhs = parse_linexpr(g[rel.end():], known, lineno, diags, col + rel.end())
        guard.append(Relation(rel.group(), lhs, rhs))
    updates: list[tuple[str, LinExpr | _Havoc]] = []
    assigned: set[str] = set()
    for col, stmt in parts_with_columns(m.group("body"), ";", base + m.start("body")):
        am = _ASSIGN_RE.match(stmt)
        lhs = am.group("lhs") if am else ""
        problem = (f"cannot parse update {stmt!r}" if not am
                   else f"parameter {lhs!r} cannot be assigned" if lhs in src.consts
                   else f"unknown variable {lhs!r}" if lhs not in src.variables
                   else f"variable {lhs!r} assigned twice on one transition"
                   if lhs in assigned else None)
        if problem:
            diags.append(Diagnostic(lineno, col, problem))
            continue
        assigned.add(lhs)
        if am.group("rhs").strip() == "?":
            updates.append((lhs, HAVOC))
        else:
            updates.append((lhs, parse_linexpr(am.group("rhs"), known, lineno, diags,
                                               col + am.start("rhs"))))
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
