"""Guarded difference constraint programs: data model, parser, validation,
and the line reader that `.dcp` and `.prog` inputs share.

A transition carries a set of variables required to be positive (the guard)
and a deterministic set of inequalities x' <= a + c, one per updated variable,
where a is a variable, a named constant, or an integer: a
`DifferenceConstraint`'s `rhs` is a variable name (`str`), a `SymConst` or an
`IntConst`. Programs are validated for determinism and well-definedness:
every variable a transition reads is constrained on every transition into
its source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from dcbound.expr import IntConst, SymConst

__all__ = [
    "Atom",
    "DifferenceConstraint",
    "Transition",
    "Dcp",
    "Diagnostic",
    "DcpError",
    "parse_dcp",
    "validate",
    "drop_variables",
    "enforce_well_definedness",
    "format_dcp",
    "strongly_connected_components",
    "cyclic_components",
]


# A variable atom is its name; rigid atoms are expression leaves, so a
# variable bound can return them as is.
Atom = str | SymConst | IntConst


@dataclass(frozen=True)
class DifferenceConstraint:
    """lhs' <= rhs + offset; the lhs is always a variable name."""

    lhs: str
    rhs: Atom
    offset: int

    def __str__(self) -> str:
        if self.offset > 0:
            return f"{self.lhs}' <= {self.rhs} + {self.offset}"
        if self.offset < 0:
            return f"{self.lhs}' <= {self.rhs} - {-self.offset}"
        return f"{self.lhs}' <= {self.rhs}"


@dataclass(frozen=True)
class Transition:
    id: str
    source: str
    target: str
    guard: tuple[str, ...]
    updates: tuple[DifferenceConstraint, ...]
    line: int = field(default=0, compare=False)  # source position only


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class DcpError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class _DcpIndex(NamedTuple):
    by_id: dict[str, Transition]
    outgoing: dict[str, tuple[Transition, ...]]
    incoming: dict[str, tuple[Transition, ...]]
    resets: dict[str, tuple[tuple[Transition, Atom, int], ...]]
    increments: dict[str, tuple[tuple[Transition, int], ...]]


@dataclass(frozen=True)
class Dcp:
    """A difference constraint program.

    The lookups `transition`, `outgoing`, `incoming`, `resets` and
    `increments` are answered from an index built lazily, once per instance,
    in one pass over the transitions. The accessors return the stored
    tuples, each in `transitions` order; where a malformed program has
    duplicates the first match wins.
    `dataclasses.replace` builds a new instance with its own index.
    """

    locations: tuple[str, ...]
    transitions: tuple[Transition, ...]
    entry: str
    exit: str
    variables: tuple[str, ...]
    sym_consts: tuple[str, ...]

    @cached_property
    def _index(self) -> _DcpIndex:
        by_id: dict[str, Transition] = {}
        outgoing: dict[str, list] = {}
        incoming: dict[str, list] = {}
        resets: dict[str, list] = {v: [] for v in self.variables}
        increments: dict[str, list] = {v: [] for v in self.variables}
        for t in self.transitions:
            by_id.setdefault(t.id, t)
            outgoing.setdefault(t.source, []).append(t)
            incoming.setdefault(t.target, []).append(t)
            seen: set[str] = set()
            for u in t.updates:
                var = u.lhs
                if var in seen or var not in resets:
                    continue  # duplicate or undeclared; validate() reports it
                seen.add(var)
                if u.rhs != var:
                    resets[var].append((t, u.rhs, u.offset))
                elif u.offset > 0:
                    increments[var].append((t, u.offset))
        return _DcpIndex(by_id, *({k: tuple(v) for k, v in d.items()}
                                  for d in (outgoing, incoming, resets, increments)))

    def transition(self, tid: str) -> Transition:
        try:
            return self._index.by_id[tid]
        except KeyError:
            raise KeyError(tid) from None

    def outgoing(self, loc: str) -> tuple[Transition, ...]:
        return self._index.outgoing.get(loc, ())

    def incoming(self, loc: str) -> tuple[Transition, ...]:
        return self._index.incoming.get(loc, ())

    def resets(self, var: str) -> tuple[tuple[Transition, Atom, int], ...]:
        """All (transition, source atom, offset) where var is set from a
        different atom: the update var' <= a + c with a != var."""
        try:
            return self._index.resets[var]
        except KeyError:
            raise ValueError(f"unknown variable {var!r}") from None

    def increments(self, var: str) -> tuple[tuple[Transition, int], ...]:
        """All (transition, offset) with a self-sourced positive offset:
        var' <= var + c and c > 0."""
        try:
            return self._index.increments[var]
        except KeyError:
            raise ValueError(f"unknown variable {var!r}") from None

    def back_edges(self) -> list[Transition]:
        """Transitions closing a cycle under a depth-first traversal from the
        entry with children visited in transition-id order."""
        out_sorted = {loc: sorted(self.outgoing(loc), key=lambda t: t.id)
                      for loc in self.locations}
        color: dict[str, int] = {loc: 0 for loc in self.locations}  # 0 white 1 grey 2 black
        back: list[Transition] = []
        # iterative DFS: (location, iterator index)
        stack: list[tuple[str, int]] = []
        if self.entry in color:
            color[self.entry] = 1
            stack.append((self.entry, 0))
        while stack:
            loc, i = stack.pop()
            edges = out_sorted[loc]
            if i < len(edges):
                stack.append((loc, i + 1))
                t = edges[i]
                if color[t.target] == 1:
                    back.append(t)
                elif color[t.target] == 0:
                    color[t.target] = 1
                    stack.append((t.target, 0))
            else:
                color[loc] = 2
        return sorted(back, key=lambda t: t.id)


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


_T = TypeVar("_T")


def cyclic_components(locations: Iterable[str],
                      transitions: Sequence[_T]) -> list[list[_T]]:
    """The transitions (anything with a `source` and a `target` location)
    whose two ends share a strongly connected component, grouped by
    component, each group in the order given. A component contributes a
    group exactly when it holds a cycle."""
    node = {loc: i for i, loc in enumerate(locations)}
    succ: list[list[int]] = [[] for _ in node]
    for t in transitions:
        succ[node[t.source]].append(node[t.target])
    comp = strongly_connected_components(succ)
    inner: dict[int, list[_T]] = {}
    for t in transitions:
        c = comp[node[t.source]]
        if c == comp[node[t.target]]:
            inner.setdefault(c, []).append(t)
    return list(inner.values())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def defined_at(dcp: Dcp) -> dict[str, set[str]]:
    """Variables constrained on every incoming transition of each location.
    Nothing is defined at the entry."""
    out: dict[str, set[str]] = {}
    for loc in dcp.locations:
        vars_ = set() if loc == dcp.entry else set(dcp.variables)
        for t in dcp.incoming(loc):
            vars_ &= {u.lhs for u in t.updates}
        out[loc] = vars_
    return out


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


def check_structure(program, consts: Iterable[str]) -> list[Diagnostic]:
    """The checks both input formats share: no name is two of constant,
    variable and location, transition ids are unique, and no transition
    enters the entry or leaves the exit. `program` is a Dcp with its
    symbolic constants or a ConcreteProgram with its parameters."""
    diags: list[Diagnostic] = []
    vars_ = set(program.variables)
    consts = set(consts)
    locs = set(program.locations)
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
        if t.source == program.exit:
            diags.append(Diagnostic(
                t.line, 1, f"transition {t.id} leaves the exit location"))
        if t.target == program.entry:
            diags.append(Diagnostic(
                t.line, 1, f"transition {t.id} enters the entry location"))
    return diags


def validate(dcp: Dcp) -> list[Diagnostic]:
    """Structural and semantic checks; an empty list means the program is
    deterministic and well-defined."""
    diags = check_structure(dcp, dcp.sym_consts)
    vars_ = set(dcp.variables)
    for t in dcp.transitions:
        for g in t.guard:
            if g not in vars_:
                diags.append(Diagnostic(
                    t.line, 1, f"transition {t.id}: guard names unknown variable {g!r}"))
        lhs_seen: set[str] = set()
        for u in t.updates:
            if u.lhs not in vars_:
                diags.append(Diagnostic(
                    t.line, 1, f"transition {t.id}: update of unknown variable {u.lhs!r}"))
            if u.lhs in lhs_seen:
                diags.append(Diagnostic(
                    t.line, 1,
                    f"transition {t.id}: determinism violation, "
                    f"variable {u.lhs!r} constrained twice"))
            lhs_seen.add(u.lhs)
            if isinstance(u.rhs, str) and u.rhs not in vars_:
                diags.append(Diagnostic(
                    t.line, 1, f"transition {t.id}: unknown atom {u.rhs!r}"))

    if diags:
        return diags  # each read of an unknown name is reported once, above

    for loc, v in sorted(undefined_reads(dcp)):
        if loc == dcp.entry:
            diags.append(Diagnostic(
                0, 0,
                f"variable {v!r} may be read at the entry {loc!r} "
                f"before it is constrained"))
        else:
            missing = [t.id for t in dcp.incoming(loc)
                       if all(u.lhs != v for u in t.updates)]
            diags.append(Diagnostic(
                0, 0,
                f"variable {v!r} is read at {loc!r} but transition(s) "
                f"{', '.join(sorted(missing))} into {loc!r} do not constrain it"))
    return diags


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def drop_variables(dcp: Dcp, removed: Iterable[str]) -> Dcp:
    """Drop every constraint mentioning a removed variable (either side) and
    every guard on one. The variables stay declared; they just lose all
    constraints, so downstream analyses treat them as unbounded."""
    removed = set(removed)
    new_ts = []
    for t in dcp.transitions:
        ups = tuple(
            u for u in t.updates
            if u.lhs not in removed
            and not (isinstance(u.rhs, str) and u.rhs in removed)
        )
        guard = tuple(g for g in t.guard if g not in removed)
        new_ts.append(replace(t, guard=guard, updates=ups))
    return replace(dcp, transitions=tuple(new_ts))


def enforce_well_definedness(dcp: Dcp) -> tuple[Dcp, list[str]]:
    """Make the program well-defined: every variable a transition reads is
    constrained on every transition into its source. Drops each guard and
    constraint that breaks this, then prunes the variables left without
    constraints. Expects one constraint per variable per transition, as
    `validate` requires.

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
        new_ts.append(replace(t, guard=tuple(guard), updates=tuple(ups)))
    # a stable sort: within a round, by transition, guards first
    warnings = [w for _, w in sorted(dropped, key=lambda d: d[0])]
    constrained = {u.lhs for t in new_ts for u in t.updates}
    warnings += [f"pruned variable {v}: no constraints remain"
                 for v in dcp.variables if v not in constrained]
    kept = tuple(v for v in dcp.variables if v in constrained)
    return replace(dcp, transitions=tuple(new_ts), variables=kept), warnings


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


@dataclass
class Source:
    """One input as `read_source` collected it: declared names in file
    order, each a key of its dict (the constants are a `.prog` input's
    parameters), the locations named anywhere, the transitions and the
    diagnostics so far, and the update texts parsed since the last
    constants line."""

    consts: dict[str, None] = field(default_factory=dict)
    variables: dict[str, None] = field(default_factory=dict)
    entry: str | None = None
    exit: str | None = None
    locations: set[str] = field(default_factory=set)
    transitions: list = field(default_factory=list)
    diags: list[Diagnostic] = field(default_factory=list)
    update_memo: dict[str, DifferenceConstraint] = field(default_factory=dict)


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
    repeated lines), entry or exit names more than one location, or entry
    or exit is missing."""
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


def _transition(m: re.Match, lineno: int, raw: str, src: Source) -> Transition:
    memo = src.update_memo
    updates = []
    for part in m.group("body").split(";"):
        part = part.strip()
        if not part:
            continue
        u = memo.get(part)
        if u is None:
            um = _UPDATE_RE.match(part)
            if um is None:
                col = raw.find(part) + 1
                src.diags.append(Diagnostic(lineno, max(col, 1),
                                            f"cannot parse update {part!r}"))
                continue
            rhs: Atom = um.group("rhs")
            if _INT_RE.fullmatch(rhs):
                rhs = IntConst(int(rhs))
            elif rhs in src.consts:
                rhs = SymConst(rhs)
            off = int(um.group("off") or 0)
            if um.group("sign") == "-":
                off = -off
            u = memo[part] = DifferenceConstraint(um.group("lhs"), rhs, off)
        updates.append(u)
    guard = m.group("guard")
    return Transition(
        id=m.group("id"), source=m.group("src"), target=m.group("tgt"),
        guard=tuple(sorted(g.strip() for g in guard.split(","))) if guard else (),
        updates=tuple(sorted(updates, key=lambda u: u.lhs)),
        line=lineno,
    )


def parse_dcp(text: str) -> Dcp:
    """Parse and validate; raises DcpError carrying positioned diagnostics."""
    src = read_source(text, "dcp", _TRANS_RE, _transition)
    dcp = Dcp(
        locations=tuple(sorted(src.locations)),
        transitions=tuple(sorted(src.transitions, key=lambda t: t.id)),
        entry=src.entry,
        exit=src.exit,
        variables=tuple(sorted(src.variables)),
        sym_consts=tuple(sorted(src.consts)),
    )
    diags = validate(dcp)
    if diags:
        raise DcpError(diags)
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
