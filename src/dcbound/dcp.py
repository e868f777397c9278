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
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from operator import attrgetter

from dcbound.expr import IntConst, SymConst
from dcbound.record import Frozen

__all__ = [
    "Atom",
    "DifferenceConstraint",
    "Transition",
    "Dcp",
    "Diagnostic",
    "DcpError",
    "parse_dcp",
    "validate",
    "require_valid",
    "drop_variables",
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
    """`line` is the source position only: equality and hash leave it out."""

    def __init__(self, id: str, source: str, target: str, guard: tuple[str, ...],
                 updates: tuple[DifferenceConstraint, ...], line: int = 0):
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


class _DcpIndex:
    """The lookups of one `Dcp`, built together in one pass."""

    __slots__ = ("by_id", "outgoing", "incoming", "resets", "increments")

    def __init__(self, by_id: dict[str, Transition],
                 outgoing: dict[str, tuple[Transition, ...]],
                 incoming: dict[str, tuple[Transition, ...]],
                 resets: dict[str, tuple[tuple[Transition, Atom, int], ...]],
                 increments: dict[str, tuple[tuple[Transition, int], ...]]):
        self.by_id = by_id
        self.outgoing = outgoing
        self.incoming = incoming
        self.resets = resets
        self.increments = increments


class Dcp(Frozen):
    """A difference constraint program.

    The lookups `transition`, `outgoing`, `incoming`, `resets` and
    `increments` are answered from an index built lazily, once per instance,
    in one pass over the transitions. The accessors return the stored
    tuples, each in `transitions` order. They assume a valid program (unique
    ids, each declared variable constrained at most once per transition);
    `validate` reads them only once its structural and name checks pass.
    `defined_at` and `validate` are cached per instance too. A transform
    builds a new instance with the constructor, and so with its own caches.
    """

    def __init__(self, locations: tuple[str, ...], transitions: tuple[Transition, ...],
                 entry: str, exit: str, variables: tuple[str, ...],
                 sym_consts: tuple[str, ...]):
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "exit", exit)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "sym_consts", sym_consts)

    @cached_property
    def _index(self) -> _DcpIndex:
        by_id: dict[str, Transition] = {}
        outgoing: dict[str, list] = {}
        incoming: dict[str, list] = {}
        resets: dict[str, list] = {v: [] for v in self.variables}
        increments: dict[str, list] = {v: [] for v in self.variables}
        for t in self.transitions:
            by_id[t.id] = t
            outgoing.setdefault(t.source, []).append(t)
            incoming.setdefault(t.target, []).append(t)
            for u in t.updates:
                if u.rhs != u.lhs:
                    resets[u.lhs].append((t, u.rhs, u.offset))
                elif u.offset > 0:
                    increments[u.lhs].append((t, u.offset))
        return _DcpIndex(by_id, *({k: tuple(v) for k, v in d.items()}
                                  for d in (outgoing, incoming, resets, increments)))

    @cached_property
    def _defined_at(self) -> dict[str, frozenset[str]]:
        out: dict[str, frozenset[str]] = {}
        for loc in self.locations:
            vars_ = set() if loc == self.entry else set(self.variables)
            for t in self.incoming(loc):
                vars_ &= {u.lhs for u in t.updates}
            out[loc] = frozenset(vars_)
        return out

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(_diagnose(self))

    def transition(self, tid: str) -> Transition:
        return self._index.by_id[tid]

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
        color[self.entry] = 1
        stack: list[tuple[str, int]] = [(self.entry, 0)]
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


def check_structure(program, consts: Iterable[str]) -> list[Diagnostic]:
    """The checks both input formats share: each name is declared once and
    is only one of constant, variable and location, transition ids are
    unique, every transition joins declared locations, and no transition
    enters the entry or leaves the exit. `program` is a Dcp with its
    symbolic constants or a ConcreteProgram with its parameters."""
    diags: list[Diagnostic] = []
    consts = tuple(consts)
    for what, names in [("variable", program.variables), ("constant", consts),
                        ("location", program.locations)]:
        diags += [Diagnostic(0, 0, f"{what} {name!r} declared twice")
                  for name, k in sorted(Counter(names).items()) if k > 1]
    vars_ = set(program.variables)
    consts = set(consts)
    locs = set(program.locations)
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
    diags = check_structure(dcp, dcp.sym_consts)
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
        new_ts.append(Transition(t.id, t.source, t.target, guard, ups, t.line))
    return Dcp(dcp.locations, tuple(new_ts), dcp.entry, dcp.exit, dcp.variables,
               dcp.sym_consts)


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
            um = _UPDATE_RE.match(part)
            if um is None:
                bad = True
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
    if bad:  # columns only for a line that needs them: most lines are good
        base = len(raw) - len(raw.lstrip()) + 1  # the column where m's text starts
        src.diags += [Diagnostic(lineno, col, f"cannot parse update {part!r}")
                      for col, part in parts_with_columns(m.group("body"), ";",
                                                          base + m.start("body"))
                      if not _UPDATE_RE.match(part)]
    guard = m.group("guard")
    return Transition(
        id=m.group("id"), source=m.group("src"), target=m.group("tgt"),
        guard=tuple(sorted(g.strip() for g in guard.split(","))) if guard else (),
        updates=tuple(sorted(updates, key=_BY_LHS)),
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
