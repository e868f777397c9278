"""Guarded difference constraint programs: data model, parser, validation,
and the line reader that `.dcp` and `.prog` inputs share.

A transition carries a set of variables required to be positive (the guard)
and a deterministic set of inequalities x' <= a + c, one per updated variable:
a `DifferenceConstraint`'s `rhs` a is a variable name (`str`), a `SymConst` or
an `IntConst`. Programs are validated for determinism and well-definedness:
every variable a transition reads is constrained on every transition into
its source. A `Dcp` maps each location to the transitions that leave it;
`resetgraph.build_reset_graph` sorts the updates into resets and increments.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from operator import attrgetter

from dcbound.expr import IntConst, SymConst, parse_int
from dcbound.record import Frozen

__all__ = [
    "Atom",
    "DifferenceConstraint",
    "Transition",
    "Program",
    "Dcp",
    "Diagnostic",
    "DcpError",
    "parse_dcp",
    "validate",
    "require_valid",
    "enforce_well_definedness",
    "format_dcp",
    "strongly_connected_components",
    "cyclic_components",
]


# A variable atom is its name; rigid atoms are expression leaves, so a
# variable bound can return them as is.
Atom = str | SymConst | IntConst


class DifferenceConstraint(Frozen):
    """lhs' <= rhs + offset; the lhs is always a variable name."""

    def __init__(self, lhs: str, rhs: Atom, offset: int):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "offset", offset)

    def __str__(self) -> str:
        if self.offset > 0:
            return f"{self.lhs}' <= {self.rhs} + {self.offset}"
        if self.offset < 0:
            return f"{self.lhs}' <= {self.rhs} - {-self.offset}"
        return f"{self.lhs}' <= {self.rhs}"


class Transition(Frozen):
    """In a `Dcp`, `guard` names the variables required positive and
    `updates` holds `DifferenceConstraint`s by variable; in a `ConcreteProgram`
    they hold `Relation`s and `(variable, LinExpr | HAVOC)` pairs in source
    order. `line` is the source position only: equality and hash leave it out."""

    def __init__(self, id: str, source: str, target: str, guard: tuple, updates: tuple,
                 line: int = 0):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "updates", updates)
        object.__setattr__(self, "line", line)

    @property
    def _key(self) -> tuple:
        return (self.id, self.source, self.target, self.guard, self.updates)


class Diagnostic(Frozen):
    def __init__(self, line: int, col: int, message: str):
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "message", message)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class DcpError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class Program(Frozen):
    """A control-flow graph of `Transition`s between `locations`, with the
    names of its `variables` and symbolic constants (`sym_consts`: a `.prog`
    input's parameters). `build_program` reads one in either language."""

    def __init__(self, locations: tuple[str, ...], transitions: tuple[Transition, ...],
                 entry: str, exit: str, variables: tuple[str, ...],
                 sym_consts: tuple[str, ...]):
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "exit", exit)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "sym_consts", sym_consts)


class Dcp(Program):
    """A difference constraint program. `outgoing` returns a stored tuple,
    in `transitions` order, from a map built once per instance; `defined_at`
    and `validate` are cached per instance too, and a transform builds a
    new instance. Resets and increments come from `build_reset_graph`."""

    def __getstate__(self) -> dict:
        # the fields only: what is cached on the instance, generated
        # functions included (they do not pickle), is rebuilt on demand
        return {f: getattr(self, f) for f in self._fields}

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Transition, ...]]:
        out: dict[str, list[Transition]] = {}
        for t in self.transitions:
            out.setdefault(t.source, []).append(t)
        return {loc: tuple(ts) for loc, ts in out.items()}

    @cached_property
    def _defined_at(self) -> dict[str, frozenset[str]]:
        defined = {loc: frozenset(() if loc == self.entry else self.variables)
                   for loc in self.locations}
        for t in self.transitions:
            if t.target in defined:  # a hand-built program may name others
                defined[t.target] = defined[t.target].intersection(u.lhs for u in t.updates)
        return defined

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(_diagnose(self))

    def outgoing(self, loc: str) -> tuple[Transition, ...]:
        return self._outgoing.get(loc, ())

    def back_edges(self) -> list[Transition]:
        """Transitions closing a cycle under a depth-first traversal from the
        entry with children visited in transition-id order."""
        color = dict.fromkeys(self.locations, 0)  # 0 white, 1 grey, 2 black
        color[self.entry] = 1
        back: list[Transition] = []
        work = [(self.entry, iter(sorted(self.outgoing(self.entry), key=_BY_ID)))]
        while work:
            loc, edges = work[-1]
            for t in edges:
                if color[t.target] == 1:
                    back.append(t)
                elif color[t.target] == 0:
                    color[t.target] = 1
                    work.append((t.target, iter(sorted(self.outgoing(t.target), key=_BY_ID))))
                    break
            else:
                color[loc] = 2
                work.pop()
        return sorted(back, key=_BY_ID)


def strongly_connected_components(succ: Sequence[Iterable[int]]) -> list[int]:
    """Component number of each node 0..len(succ)-1 of the directed graph
    whose successor lists are `succ` (Tarjan's algorithm, without recursion).
    Two nodes share a number exactly when each reaches the other."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = found = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = found
                        if w == v:
                            break
                    found += 1
    return comp


def cyclic_components(locations: Iterable[str], transitions: Sequence) -> list[list]:
    """The transitions (anything with a `source` and a `target` location)
    whose two ends share a strongly connected component, grouped by
    component, each group in the order given. A component contributes a
    group exactly when it holds a cycle."""
    node = {loc: i for i, loc in enumerate(locations)}
    succ: list[list[int]] = [[] for _ in node]
    for t in transitions:
        succ[node[t.source]].append(node[t.target])
    comp = strongly_connected_components(succ)
    inner: dict[int, list] = {}
    for t in transitions:
        c = comp[node[t.source]]
        if c == comp[node[t.target]]:
            inner.setdefault(c, []).append(t)
    return list(inner.values())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def defined_at(dcp: Dcp) -> dict[str, frozenset[str]]:
    """Variables constrained on every incoming transition of each location.
    Nothing is defined at the entry. The map is computed once per program
    and shared: callers must not change it."""
    return dcp._defined_at


def undefined_reads(dcp: Dcp) -> set[tuple[str, str]]:
    """The (location, name) pairs where a transition from the location reads
    the name (in its guard or a right-hand side) that some transition into
    the location leaves unconstrained; empty when the program is
    well-defined. Nothing is constrained at the entry."""
    defined = defined_at(dcp)
    return {(t.source, v) for t in dcp.transitions
            for v in (*t.guard, *(u.rhs for u in t.updates
                                  if isinstance(u.rhs, str)))
            if v not in defined[t.source]}


_RESERVED = {"undef", "max", "min"}  # words of a bound expression, not constants


def check_structure(program: Program) -> list[Diagnostic]:
    """The checks a `Dcp` and a `ConcreteProgram` share: each name is declared
    once and is only one of constant, variable and location, no constant is a
    word of the bound expressions (`undef`, `max`, `min`), transition ids are
    unique, every transition joins declared locations, and no transition
    enters the entry or leaves the exit. Guards and updates are not read."""
    diags: list[Diagnostic] = []
    for what, names in [("variable", program.variables), ("constant", program.sym_consts),
                        ("location", program.locations)]:
        diags += [Diagnostic(0, 0, f"{what} {name!r} declared twice")
                  for name, k in sorted(Counter(names).items()) if k > 1]
    vars_ = set(program.variables)
    consts = set(program.sym_consts)
    locs = set(program.locations)
    diags += [Diagnostic(0, 0, f"constant {name!r} is reserved in bound expressions")
              for name in sorted(consts & _RESERVED)]
    diags += [Diagnostic(0, 0, f"{key} {loc!r} is not a location")
              for key, loc in (("entry", program.entry), ("exit", program.exit))
              if loc not in locs]
    for a, b, what in [
        (vars_, consts, "variable and constant"),
        (vars_, locs, "variable and location"),
        (consts, locs, "constant and location"),
    ]:
        for name in sorted(a & b):
            diags.append(Diagnostic(0, 0, f"name {name!r} used as both {what}"))
    seen_ids: set[str] = set()
    for t in program.transitions:
        if t.id in seen_ids:
            diags.append(Diagnostic(t.line, 1, f"duplicate transition id {t.id!r}"))
        seen_ids.add(t.id)
        for loc in (t.source, t.target):
            if loc not in locs:
                diags.append(Diagnostic(
                    t.line, 1, f"transition {t.id}: unknown location {loc!r}"))
        if t.source == program.exit:
            diags.append(Diagnostic(
                t.line, 1, f"transition {t.id} leaves the exit location"))
        if t.target == program.entry:
            diags.append(Diagnostic(
                t.line, 1, f"transition {t.id} enters the entry location"))
    return diags


def validate(dcp: Dcp) -> list[Diagnostic]:
    """Structural and semantic checks; an empty list means the program is
    deterministic and well-defined. Computed once per program."""
    return list(dcp._diagnostics)


def require_valid(dcp: Dcp) -> None:
    """The gate of `parse_dcp`, `Analysis` and the oracle: raises DcpError
    with `validate`'s diagnostics unless there are none."""
    if dcp._diagnostics:
        raise DcpError(validate(dcp))


def _diagnose(dcp: Dcp) -> list[Diagnostic]:
    diags = check_structure(dcp)
    vars_ = set(dcp.variables)
    consts = set(dcp.sym_consts)

    def bad(t: Transition, message: str) -> None:
        diags.append(Diagnostic(t.line, 1, f"transition {t.id}: {message}"))

    for t in dcp.transitions:
        for g in t.guard:
            if g not in vars_:
                bad(t, f"guard names unknown variable {g!r}")
        lhs_seen: set[str] = set()
        for u in t.updates:
            if u.lhs not in vars_:
                bad(t, f"update of unknown variable {u.lhs!r}")
            if u.lhs in lhs_seen:
                bad(t, f"determinism violation, variable {u.lhs!r} constrained twice")
            lhs_seen.add(u.lhs)
            if isinstance(u.rhs, str) and u.rhs not in vars_:
                bad(t, f"unknown atom {u.rhs!r}")
            elif isinstance(u.rhs, SymConst) and u.rhs.name not in consts:
                bad(t, f"unknown constant {u.rhs.name!r}")

    if diags:
        return diags  # each read of an unknown name is reported once, above

    into: dict[str, list[Transition]] = {}  # the transitions into a reported location
    for loc, v in sorted(undefined_reads(dcp)):
        if loc == dcp.entry:
            diags.append(Diagnostic(
                0, 0,
                f"variable {v!r} may be read at the entry {loc!r} "
                f"before it is constrained"))
        else:
            if loc not in into:
                into[loc] = [t for t in dcp.transitions if t.target == loc]
            missing = [t.id for t in into[loc] if all(u.lhs != v for u in t.updates)]
            diags.append(Diagnostic(
                0, 0,
                f"variable {v!r} is read at {loc!r} but transition(s) "
                f"{', '.join(sorted(missing))} into {loc!r} do not constrain it"))
    return diags


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def enforce_well_definedness(dcp: Dcp) -> tuple[Dcp, list[str]]:
    """Make the program well-defined: every variable a transition reads is
    constrained on every transition into its source. Drops each guard and
    constraint that breaks this, then prunes the variables left without
    constraints, and warns of each dropped guard and constraint (the
    abstraction reports each variable it loses by its norm). Expects one
    constraint per variable per transition, as `validate` requires.

    Dropping x' <= w + c on t leaves x unconstrained on t, so the drops come
    in rounds. The pairs of `undefined_reads` are round 1, and (t.target, x)
    is round k + 1 when t's constraint on x reads a round-k pair at t.source.
    A read is dropped in the round of the pair it reads; the warnings come
    by round, then by transition, guards before updates. Dropping
    constraints and guards only enlarges the run set, so any bound computed
    for the result still covers the original behaviour.
    """
    level = dict.fromkeys(undefined_reads(dcp), 1)  # the round of each pair
    spreads: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for t in dcp.transitions:
        for u in t.updates:
            if isinstance(u.rhs, str):
                spreads.setdefault((t.source, u.rhs), []).append(
                    (t.target, u.lhs))
    queue = list(level)  # breadth first: the loop visits what it appends
    for pair in queue:
        for p in spreads.get(pair, ()):
            if p not in level:  # defined so far, or read nowhere
                level[p] = level[pair] + 1
                queue.append(p)

    dropped: list[tuple[int, str]] = []
    new_ts = []
    for t in dcp.transitions:
        guard = []
        for g in t.guard:
            r = level.get((t.source, g))
            if r:
                dropped.append((r, f"dropped guard {g} on {t.id}: "
                                   f"not defined at {t.source}"))
            else:
                guard.append(g)
        ups = []
        for u in t.updates:
            r = isinstance(u.rhs, str) and level.get((t.source, u.rhs))
            if r:
                dropped.append((r, f"dropped {u} on {t.id}: "
                                   f"{u.rhs} not defined at {t.source}"))
            else:
                ups.append(u)
        new_ts.append(Transition(t.id, t.source, t.target, tuple(guard), tuple(ups),
                                 t.line))
    # a stable sort: within a round, by transition, guards first
    warnings = [w for _, w in sorted(dropped, key=lambda d: d[0])]
    constrained = {u.lhs for t in new_ts for u in t.updates}
    kept = tuple(v for v in dcp.variables if v in constrained)
    return Dcp(dcp.locations, tuple(new_ts), dcp.entry, dcp.exit, kept,
               dcp.sym_consts), warnings


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------
#
# Both input languages are line-oriented; '#' starts a comment and the first
# line names the format. `read_source` reads all but the transition lines,
# which each format parses with its own pattern:
#
#   dcp                                  prog
#   consts: n, m1, m2                    params: l
#   vars:   x, y, z                      vars:   i, b, e, k
#   entry:  lb                           entry:  l0
#   exit:   le                           exit:   le
#   trans t1: l1 -> l2 guard(x) { x' <= x - 1; r' <= r + 1; }
#
# Variable names may also be written in parenthesized-expression form, e.g.
# (l-i), as produced by `abstract --keep-names`.
#
# Well-defined programs repeat a few update texts (x' <= x, x' <= 0, ...) on
# almost every transition, so a `.dcp` read parses each distinct update text
# once and shares the frozen constraint (`Source.update_memo`). Whether the
# name on the right is a constant or a variable depends on the constants
# declared so far, so `read_source` empties the memo on each constants line.
# A text that does not parse is never stored: each occurrence reports its own
# position.

_DECL_RE = {tag: re.compile(rf"^({consts}|vars|entry|exit)\s*:\s*(.*)$")
            for tag, consts in (("dcp", "consts"), ("prog", "params"))}
_NAME = r"(?:[A-Za-z_][A-Za-z0-9_]*|\([A-Za-z0-9_+\-*]+\))"
_TRANS_RE = re.compile(
    rf"^trans\s+(?P<id>{_NAME})\s*:\s*(?P<src>{_NAME})\s*->\s*(?P<tgt>{_NAME})"
    rf"\s*(?:guard\(\s*(?P<guard>{_NAME}(?:\s*,\s*{_NAME})*)\s*\))?"
    r"\s*\{(?P<body>.*)\}\s*$"
)
_UPDATE_RE = re.compile(
    rf"^(?P<lhs>{_NAME})'\s*<=\s*(?P<rhs>{_NAME}|-?\d+)"
    r"(?:\s*(?P<sign>[+-])\s*(?P<off>\d+))?$"
)
_INT_RE = re.compile(r"-?\d+")
_BY_LHS = attrgetter("lhs")  # the sort key of a transition's updates
_BY_ID = attrgetter("id")  # and of a program's transitions


class Source:
    """One input as `read_source` collected it: declared names in file
    order, each a key of its dict (the constants are a `.prog` input's
    parameters), the locations named anywhere, the transitions and the
    diagnostics so far, and the update texts parsed since the last
    constants line. It starts empty; `read_source` fills it in."""

    def __init__(self) -> None:
        self.consts: dict[str, None] = {}
        self.variables: dict[str, None] = {}
        self.entry: str | None = None
        self.exit: str | None = None
        self.locations: set[str] = set()
        self.transitions: list = []
        self.diags: list[Diagnostic] = []
        self.update_memo: dict[str, DifferenceConstraint] = {}


def _lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, raw line, content) of each line that has content once
    its comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line


def input_format(text: str) -> str:
    """The format named by the first line: 'dcp' or 'prog'."""
    for lineno, _, line in _lines(text):
        if line in _DECL_RE:
            return line
        raise DcpError([Diagnostic(lineno, 1, "expected 'dcp' or 'prog' header")])
    raise DcpError([Diagnostic(0, 0, "expected 'dcp' or 'prog' header")])


def read_source(text: str, tag: str, trans_re: re.Pattern,
                transition: Callable[[re.Match, int, str, Source], object]) -> Source:
    """Read an input in format `tag`. Each line that `trans_re` matches goes
    to `transition(match, line number, raw line, source so far)`, which
    returns the transition and adds its own diagnostics to `source.diags`;
    the match's groups `src` and `tgt` are locations. Raises DcpError when
    a line does not parse, a declaration lists a name twice (also across
    repeated lines), entry or exit is declared twice or names more than one
    location, or entry or exit is missing."""
    src = Source()
    lines = _lines(text)
    first = next(lines, None)
    if first is not None and first[2] != tag:
        raise DcpError([Diagnostic(first[0], 1, f"expected {tag!r} header")])
    decl_re = _DECL_RE[tag]
    for lineno, raw, line in lines:
        m = decl_re.match(line)
        if m:
            key, rest = m.groups()
            names = [p.strip() for p in rest.split(",")] if rest else []
            if "" in names:
                src.diags.append(Diagnostic(lineno, 1, f"empty name in {key} list"))
            elif key in ("entry", "exit"):
                if getattr(src, key) is not None:
                    src.diags.append(Diagnostic(lineno, 1, f"{key} declared twice"))
                if len(names) > 1:
                    src.diags.append(Diagnostic(
                        lineno, 1, f"{key} names more than one location"))
                setattr(src, key, names[0] if names else None)
                src.locations.update(names[:1])
            else:
                declared = src.variables if key == "vars" else src.consts
                for name in names:
                    if name in declared:
                        src.diags.append(Diagnostic(
                            lineno, 1, f"duplicate name {name!r} in {key} list"))
                    declared[name] = None
                if key != "vars":
                    src.update_memo.clear()  # a new constant may reread a name
            continue
        m = trans_re.match(line)
        if m:
            src.transitions.append(transition(m, lineno, raw, src))
            src.locations.update((m.group("src"), m.group("tgt")))
            continue
        src.diags.append(Diagnostic(lineno, 1, f"cannot parse line {line!r}"))
    if src.entry is None:
        src.diags.append(Diagnostic(0, 0, "missing entry declaration"))
    if src.exit is None:
        src.diags.append(Diagnostic(0, 0, "missing exit declaration"))
    if src.diags:
        raise DcpError(src.diags)
    return src


def parts_with_columns(text: str, sep: str, col: int) -> Iterator[tuple[int, str]]:
    """(column, stripped text) of each nonblank part of `text`, split at
    `sep`, where `text` starts at column `col`."""
    for part in text.split(sep):
        if part.strip():
            yield col + len(part) - len(part.lstrip()), part.strip()
        col += len(part) + len(sep)


def _update(part: str, consts: dict[str, None]) -> DifferenceConstraint | tuple[int, str]:
    """The constraint that `part` spells, or (offset in `part`, message) of
    why it spells none."""
    um = _UPDATE_RE.match(part)
    if um is None:
        return 0, f"cannot parse update {part!r}"
    rhs: Atom = um.group("rhs")
    try:
        if _INT_RE.fullmatch(rhs):
            rhs = IntConst(parse_int(rhs))
        elif rhs in consts:
            rhs = SymConst(rhs)
        off = parse_int(um.group("off") or "0")
    except ValueError as exc:  # a literal too long to read: which one?
        return um.start("rhs" if isinstance(rhs, str) and _INT_RE.match(rhs) else "off"), str(exc)
    return DifferenceConstraint(um.group("lhs"), rhs, -off if um.group("sign") == "-" else off)


def _transition(m: re.Match, lineno: int, raw: str, src: Source) -> Transition:
    memo = src.update_memo
    updates = []
    bad = False
    for part in m.group("body").split(";"):
        part = part.strip()
        if not part:
            continue
        u = memo.get(part)
        if u is None:
            u = _update(part, src.consts)
            if isinstance(u, tuple):
                bad = True
                continue
            memo[part] = u
        updates.append(u)
    if bad:  # columns only for a line that needs them: most lines are good
        base = len(raw) - len(raw.lstrip()) + 1  # the column where m's text starts
        for col, part in parts_with_columns(m.group("body"), ";", base + m.start("body")):
            u = _update(part, src.consts)
            if isinstance(u, tuple):
                src.diags.append(Diagnostic(lineno, col + u[0], u[1]))
    guard = m.group("guard")
    return Transition(
        id=m.group("id"), source=m.group("src"), target=m.group("tgt"),
        guard=tuple(sorted(g.strip() for g in guard.split(","))) if guard else (),
        updates=tuple(sorted(updates, key=_BY_LHS)),
        line=lineno,
    )


def build_program(src: Source, cls: type[Program]) -> Program:
    """The `cls` program `src` read, with its names sorted and its
    transitions by id, so that the order of the input lines does not show."""
    return cls(tuple(sorted(src.locations)), tuple(sorted(src.transitions, key=_BY_ID)),
               src.entry, src.exit, tuple(sorted(src.variables)), tuple(sorted(src.consts)))


def parse_dcp(text: str) -> Dcp:
    """Parse and validate; raises DcpError carrying positioned diagnostics."""
    dcp = build_program(read_source(text, "dcp", _TRANS_RE, _transition), Dcp)
    require_valid(dcp)
    return dcp


def format_dcp(dcp: Dcp, header_comments: Iterable[str] = ()) -> str:
    """Serialize in the file format parse_dcp reads."""
    lines = [f"# {c}" for c in header_comments]
    lines.append("dcp")
    lines.append("consts: " + ", ".join(dcp.sym_consts))
    lines.append("vars:   " + ", ".join(dcp.variables))
    lines.append(f"entry:  {dcp.entry}")
    lines.append(f"exit:   {dcp.exit}")
    for t in dcp.transitions:
        guard = f" guard({','.join(t.guard)})" if t.guard else ""
        body = " ".join(f"{u};" for u in t.updates)
        body = f" {body} " if body else " "
        lines.append(f"trans {t.id}: {t.source} -> {t.target}{guard} {{{body}}}")
    return "\n".join(lines) + "\n"
