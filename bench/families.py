"""Seeded program families with hand-derived reference bounds.

Each generator returns a `Case`: the program text and what a correct
`dcbound analyze --vb` report must say about it, written down from the
program's shape rather than taken from the analyzer. The reference maps each
transition and variable to its expected value as a function of the symbolic
constant `n`; the same values hold in all three analysis modes.

Identifiers (variables, locations, transitions) pass through a `Names`
object. With a seed it alpha-renames them to seeded random identifiers, so a
workload seed changes every sort order the analyzer sees but not the bounds.
Without a seed the canonical names are kept (used by the golden corpus).

Families (k is the size parameter):

  seq(k)      k self-loops in sequence; every transition constrains every
              variable. Leaving loop j zeroes its counter and sets the next
              one to n, so concrete runs visit only k*(n+1) states.
              Complexity k*n.
  long(k)     one loop through k locations. Complexity n.
  branchy(k)  one loop whose body is k parallel-edge diamonds in series:
              2^k simple cycles. Complexity n.
  chain(k)    k nested loops; each inner counter is reset from the counter
              around it. Complexity n + n^2 + ... + n^k.
  prognest(k) concrete (.prog) nested loops where i_j counts up to i_(j-1),
              with i_0 = n. The innermost self-loop runs exactly
              C(n+k-1, k) times, so the complexity must be at least that.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from math import comb
from typing import Callable

Poly = Callable[[int], int]

class Names:
    """Seeded alpha-renaming of generated identifiers.

    Every fresh name ends in digits, so it never collides with a keyword of
    either input language, the constant `n`, or another fresh name.
    """

    def __init__(self, seed: int | None):
        self._rng = None if seed is None else random.Random(seed)
        self._map: dict[str, str] = {}
        self._used: set[str] = set()

    def __call__(self, canonical: str) -> str:
        if self._rng is None:
            return canonical
        name = self._map.get(canonical)
        if name is None:
            while name is None or name in self._used:
                name = (self._rng.choice("abcdfghpqrsuwyz")
                        + str(self._rng.randrange(100_000)))
            self._used.add(name)
            self._map[canonical] = name
        return name


@dataclass
class Case:
    """One generated input and its reference."""

    name: str            # e.g. "seq(40)"
    suffix: str          # ".dcp" or ".prog"
    text: str
    tb: dict[str, Poly] = field(default_factory=dict)
    vb: dict[str, Poly] = field(default_factory=dict)
    complexity: Poly | None = None            # exact expected value
    complexity_at_least: Poly | None = None   # lower bound only (prognest)


def _const(c: int) -> Poly:
    return lambda n: c


def _lin(c: int) -> Poly:
    return lambda n: c * n


def _pow(j: int) -> Poly:
    return lambda n: n ** j


def _dcp(names: Names, nvars: list[str], entry: str, exit_: str,
         trans: list[tuple[str, str, str, list[str], list[str]]]) -> str:
    lines = ["dcp", "consts: n", "vars: " + ", ".join(names(v) for v in nvars),
             f"entry: {names(entry)}", f"exit: {names(exit_)}"]
    for tid, src, tgt, guard, updates in trans:
        g = f" guard({','.join(names(x) for x in guard)})" if guard else ""
        lines.append(f"trans {names(tid)}: {names(src)} -> {names(tgt)}{g} "
                     f"{{ {' '.join(u + ';' for u in updates)} }}")
    return "\n".join(lines) + "\n"


def _keep(names: Names, variables: list[str]) -> list[str]:
    return [f"{names(v)}' <= {names(v)}" for v in variables]


def seq(k: int, seed: int | None = None) -> Case:
    names = Names(seed)
    xs = [f"x{j}" for j in range(1, k + 1)]
    trans = [("t0", "lb", "l1", [],
              [f"{names(xs[0])}' <= n"] + [f"{names(x)}' <= 0" for x in xs[1:]])]
    case = Case(f"seq({k})", ".dcp", "")
    case.tb[names("t0")] = _const(1)
    for j in range(1, k + 1):
        x = xs[j - 1]
        others = [y for y in xs if y != x]
        trans.append((f"loop{j}", f"l{j}", f"l{j}", [x],
                      [f"{names(x)}' <= {names(x)} - 1"] + _keep(names, others)))
        case.tb[names(f"loop{j}")] = _lin(1)
        if j < k:
            nxt = xs[j]
            rest = [y for y in xs if y not in (x, nxt)]
            trans.append((f"next{j}", f"l{j}", f"l{j + 1}", [],
                          [f"{names(x)}' <= 0", f"{names(nxt)}' <= n"]
                          + _keep(names, rest)))
            case.tb[names(f"next{j}")] = _const(1)
    trans.append(("done", f"l{k}", "le", [], _keep(names, xs)))
    case.tb[names("done")] = _const(1)
    case.vb = {names(x): _lin(1) for x in xs}
    case.complexity = _lin(k)
    case.text = _dcp(names, xs, "lb", "le", trans)
    return case


def long(k: int, seed: int | None = None) -> Case:
    names = Names(seed)
    x = names("x")
    trans = [("t0", "lb", "l1", [], [f"{x}' <= n"]),
             ("dec", "l1", "l2", ["x"], [f"{x}' <= {x} - 1"])]
    trans += [(f"s{j}", f"l{j}", f"l{j + 1}", [], [f"{x}' <= {x}"])
              for j in range(2, k)]
    trans += [("back", f"l{k}", "l1", [], [f"{x}' <= {x}"]),
              ("done", "l1", "le", [], [])]
    case = Case(f"long({k})", ".dcp", _dcp(names, ["x"], "lb", "le", trans))
    case.tb = {names(t[0]): _lin(1) for t in trans}
    case.tb[names("t0")] = case.tb[names("done")] = _const(1)
    case.vb = {x: _lin(1)}
    case.complexity = _lin(1)
    return case


def branchy(k: int, seed: int | None = None) -> Case:
    names = Names(seed)
    x = names("x")
    trans = [("t0", "lb", "l0", [], [f"{x}' <= n"]),
             ("dec", "l0", "l1", ["x"], [f"{x}' <= {x} - 1"])]
    for j in range(1, k + 1):
        for side in "ab":
            trans.append((f"{side}{j}", f"l{j}", f"l{j + 1}", [], [f"{x}' <= {x}"]))
    trans += [("back", f"l{k + 1}", "l0", [], [f"{x}' <= {x}"]),
              ("done", "l0", "le", [], [])]
    case = Case(f"branchy({k})", ".dcp", _dcp(names, ["x"], "lb", "le", trans))
    case.tb = {names(t[0]): _lin(1) for t in trans}
    case.tb[names("t0")] = case.tb[names("done")] = _const(1)
    case.vb = {x: _lin(1)}
    case.complexity = _lin(1)
    return case


def chain(k: int, seed: int | None = None) -> Case:
    names = Names(seed)
    xs = [f"x{j}" for j in range(1, k + 1)]
    trans = [("t0", "lb", "l1", [], [f"{names(xs[0])}' <= n"])]
    case = Case(f"chain({k})", ".dcp", "")
    case.tb[names("t0")] = _const(1)
    for j in range(1, k):
        x, inner = names(xs[j - 1]), names(xs[j])
        trans.append((f"down{j}", f"l{j}", f"l{j + 1}", [xs[j - 1]],
                      [f"{x}' <= {x} - 1", f"{inner}' <= {x}"]
                      + _keep(names, xs[:j - 1])))
        case.tb[names(f"down{j}")] = _pow(j)
    for j in range(2, k + 1):
        trans.append((f"up{j}", f"l{j}", f"l{j - 1}", [], _keep(names, xs[:j - 1])))
        case.tb[names(f"up{j}")] = _pow(j - 1)
    x = names(xs[-1])
    trans.append(("spin", f"l{k}", f"l{k}", [xs[-1]],
                  [f"{x}' <= {x} - 1"] + _keep(names, xs[:-1])))
    case.tb[names("spin")] = _pow(k)
    trans.append(("done", "l1", "le", [], []))
    case.tb[names("done")] = _const(1)
    case.vb = {names(v): _lin(1) for v in xs}
    case.complexity = lambda n: sum(n ** j for j in range(1, k + 1))
    case.text = _dcp(names, xs, "lb", "le", trans)
    return case


def prognest(k: int, seed: int | None = None) -> Case:
    names = Names(seed)
    i = [None] + [names(f"i{j}") for j in range(1, k + 1)]
    loc = [names(f"l{j}") for j in range(k + 1)]
    lines = ["prog", "params: n", "vars: " + ", ".join(i[1:]),
             f"entry: {loc[0]}", f"exit: {names('le')}",
             f"trans {names('t0')}: {loc[0]} -> {loc[1]} {{ {i[1]} := 0; }}"]
    for j in range(1, k + 1):
        limit = "n" if j == 1 else i[j - 1]
        if j < k:
            lines.append(f"trans {names(f'in{j}')}: {loc[j]} -> {loc[j + 1]} "
                         f"when {i[j]} < {limit} "
                         f"{{ {i[j]} := {i[j]} + 1; {i[j + 1]} := 0; }}")
        else:
            lines.append(f"trans {names(f'in{j}')}: {loc[j]} -> {loc[j]} "
                         f"when {i[j]} < {limit} {{ {i[j]} := {i[j]} + 1; }}")
        if j == 1:
            lines.append(f"trans {names('done')}: {loc[1]} -> {names('le')} "
                         f"when {i[1]} >= n {{ {i[1]} := ?; }}")
        else:
            lines.append(f"trans {names(f'out{j}')}: {loc[j]} -> {loc[j - 1]} "
                         f"when {i[j]} >= {limit} {{ {i[j]} := ?; }}")
    case = Case(f"prognest({k})", ".prog", "\n".join(lines) + "\n")
    case.complexity_at_least = lambda n: comb(n + k - 1, k)
    return case


GENERATORS: dict[str, Callable[..., Case]] = {
    "seq": seq, "long": long, "branchy": branchy, "chain": chain,
    "prognest": prognest,
}


def generate(family: str, k: int, seed: int | None = None) -> Case:
    return GENERATORS[family](k, seed)


# ---------------------------------------------------------------------------
# checking a report against the reference
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def evaluate_bound(text: str, n: int) -> int | None:
    """Value of a printed bound at `n`, or None for `undef`.

    An evaluator of its own, independent of `dcbound.expr`, for the grammar
    reports use: integers, `n`, `+`, `*`, `max(...)`, `min(...)`, `undef`.
    Sums and products are loops, so only parentheses recurse.
    """
    tokens = [m.group(1) or m.group(2) or m.group(3)
              for m in _TOKEN.finditer(text.strip())]
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"bad bound {text!r} at token {pos}")
        pos += 1
        return tok

    def atom():
        tok = take()
        if tok.isdigit():
            return int(tok)
        if tok == "n":
            return n
        if tok == "undef":
            return None
        if tok in ("max", "min"):
            take("(")
            args = [total()]
            while peek() == ",":
                take(",")
                args.append(total())
            take(")")
            if None in args:
                return None
            return max(args) if tok == "max" else min(args)
        if tok == "(":
            value = total()
            take(")")
            return value
        raise ValueError(f"bad bound {text!r}: unexpected {tok!r}")

    def product():
        value = atom()
        while peek() == "*":
            take("*")
            rhs = atom()
            value = None if value is None or rhs is None else value * rhs
        return value

    def total():
        value = product()
        while peek() == "+":
            take("+")
            rhs = product()
            value = None if value is None or rhs is None else value + rhs
        return value

    value = total()
    if pos != len(tokens):
        raise ValueError(f"bad bound {text!r}: trailing {tokens[pos]!r}")
    return value


CHECK_POINTS = (0, 1, 2, 3, 5, 8, 11)


def parse_report(stdout: str) -> tuple[dict[str, str], dict[str, str], str | None]:
    """Split `analyze --vb` output into TB and VB bound texts and the
    complexity text."""
    tb: dict[str, str] = {}
    vb: dict[str, str] = {}
    complexity = None
    for line in stdout.splitlines():
        lhs, sep, rhs = line.partition(" = ")
        if not sep:
            raise ValueError(f"unexpected report line {line!r}")
        if lhs == "complexity":
            complexity = rhs
        elif lhs.startswith("TB(") and lhs.endswith(")"):
            tb[lhs[3:-1]] = rhs
        elif lhs.startswith("VB(") and lhs.endswith(")"):
            vb[lhs[3:-1]] = rhs
        else:
            raise ValueError(f"unexpected report line {line!r}")
    return tb, vb, complexity


def check_report(case: Case, stdout: str) -> str | None:
    """None when the report matches the case's reference, else a reason."""
    try:
        tb, vb, complexity = parse_report(stdout)
        if complexity is None:
            return "no complexity line"
        for kind, got, want in (("TB", tb, case.tb), ("VB", vb, case.vb)):
            if want and set(got) != set(want):
                return f"{kind} names differ from the reference"
            for name, poly in want.items():
                for n in CHECK_POINTS:
                    value = evaluate_bound(got[name], n)
                    if value != poly(n):
                        return (f"{kind}({name}) = {got[name]} gives {value} "
                                f"at n={n}, expected {poly(n)}")
        for n in CHECK_POINTS:
            value = evaluate_bound(complexity, n)
            if case.complexity is not None and value != case.complexity(n):
                return (f"complexity gives {value} at n={n}, "
                        f"expected {case.complexity(n)}")
            if case.complexity_at_least is not None and (
                    value is None or value < case.complexity_at_least(n)):
                return (f"complexity gives {value} at n={n}, "
                        f"expected at least {case.complexity_at_least(n)}")
    except ValueError as exc:
        return str(exc)
    return None
