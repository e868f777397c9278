"""Reset graphs and reset paths.

`build_reset_graph` alone sorts updates: a reset is an edge source atom ->
reset variable, labeled with the transition and offset; an increment is an
update v' <= v + c with c > 0. Reset chains require the variable part of the
graph to be acyclic, so variables on reset cycles (and all downstream) are
removed: no edge or increment names one, and both name the input's
transitions. The edges are sorted once; `ResetGraph.into` and `to_dot` keep that.

A reset path is sound when each interior atom is guaranteed to be re-reset
between the completion of the chain and the next use of the edge consuming
it; the optimal paths are the maximal sound ones. Only `optimal_reset_paths`
decides soundness; its test reference is `is_sound` in `tests/conftest.py`.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from dcbound.dcp import Atom, Dcp, DifferenceConstraint, Transition, \
    strongly_connected_components
from dcbound.record import Frozen

__all__ = [
    "DEFAULT_RESET_PATH_CAP",
    "ResetPathOverflow",
    "ResetEdge",
    "ResetPath",
    "ResetGraph",
    "ResetAnalysis",
    "build_reset_graph",
    "optimal_reset_paths",
    "to_dot",
]

DEFAULT_RESET_PATH_CAP = 4_096


class ResetPathOverflow(Exception):
    """More optimal reset paths end in one variable than the cap allows."""


class ResetEdge(Frozen):
    """The reset dst' <= src + offset on `trans`; `dst` is a variable name."""

    def __init__(self, src: Atom, trans: Transition, offset: int, dst: str):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "dst", dst)


class ResetPath(Frozen):
    """Edges ordered from the originating atom down to the final variable."""

    def __init__(self, edges: tuple[ResetEdge, ...]):
        object.__setattr__(self, "edges", edges)

    @property
    def in_atom(self) -> Atom:
        return self.edges[0].src

    @property
    def offset(self) -> int:
        return sum(e.offset for e in self.edges)

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """Distinct transitions along the path, in path order."""
        seen: dict[str, Transition] = {}
        for e in self.edges:
            seen.setdefault(e.trans.id, e.trans)
        return tuple(seen.values())

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """Distinct atoms along the path, origin first."""
        return tuple(dict.fromkeys(
            (self.edges[0].src, *(e.dst for e in self.edges))))

    def __str__(self) -> str:
        parts = [str(self.edges[0].src)]
        for e in self.edges:
            off = f",{e.offset:+d}" if e.offset else ""
            parts.append(f"-[{e.trans.id}{off}]-> {e.dst}")
        return " ".join(parts)


class ResetGraph(Frozen):
    """Reset edges as `build_reset_graph`, their only builder, sorts them:
    by (str(source), target, transition id, offset). Adjacency is built
    lazily, once per instance: `into` returns the stored tuple of edges into
    a variable, in that order. `path_count` memoizes per target variable."""

    def __init__(self, edges: tuple[ResetEdge, ...]):
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_path_counts", {})  # path_count's memo, not a field

    @cached_property
    def _into(self) -> dict[str, tuple[ResetEdge, ...]]:
        out: dict[str, list[ResetEdge]] = {}
        for e in self.edges:
            out.setdefault(e.dst, []).append(e)
        return {v: tuple(es) for v, es in out.items()}

    def into(self, var: str) -> tuple[ResetEdge, ...]:
        return self._into.get(var, ())

    def path_count(self, src: Atom, dst_var: str) -> int:
        """Number of distinct edge paths from src to dst (1 for src == dst).
        The count relies on the variable part of the graph being acyclic,
        as build_reset_graph leaves it."""
        counts = self._path_counts.get(dst_var)
        if counts is None:
            counts = self._path_counts[dst_var] = self._count_paths_to(dst_var)
        return counts.get(src, 0)

    def _count_paths_to(self, dst_var: str) -> dict[Atom, int]:
        """Paths to dst_var from each of its ancestors, keyed by atom.
        Counted backward: an atom's count is final once every edge from it
        into the ancestors has been followed back, so atoms settle in
        reverse topological order. A constant has no edges into it."""
        waiting: dict[Atom, int] = {}  # edges into ancestors not yet followed
        frontier: list[Atom] = [dst_var]
        seen = {dst_var}
        while frontier:
            for e in self._into.get(frontier.pop(), ()):
                waiting[e.src] = waiting.get(e.src, 0) + 1
                if e.src not in seen:
                    seen.add(e.src)
                    frontier.append(e.src)
        counts: dict[Atom, int] = {dst_var: 1}
        ready: list[Atom] = [dst_var]
        while ready:
            atom = ready.pop()
            n = counts[atom]
            for e in self._into.get(atom, ()):
                counts[e.src] = counts.get(e.src, 0) + n
                waiting[e.src] -= 1
                if not waiting[e.src]:
                    ready.append(e.src)
        return counts


class ResetAnalysis(Frozen):
    """The reset graph, `removed_vars`, and `increments`: per kept variable
    with increments v' <= v + c, c > 0, the pair (v, ((transition, c), ...))
    in program order. R(v) is `graph.into(v)`, I(v) `increments_of(v)`;
    neither names a removed variable. `warnings` words the removal."""

    def __init__(self, graph: ResetGraph, removed_vars: frozenset[str],
                 increments: tuple[tuple[str, tuple[tuple[Transition, int], ...]], ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "removed_vars", removed_vars)
        object.__setattr__(self, "increments", increments)
        object.__setattr__(self, "_increments", dict(increments))  # not a field

    def increments_of(self, var: str) -> tuple[tuple[Transition, int], ...]:
        return self._increments.get(var, ())

    @property
    def warnings(self) -> list[str]:
        if not self.removed_vars:
            return []
        names = ", ".join(sorted(self.removed_vars))
        return [f"removed variables on reset cycles (and dependents): {names}"]


def build_reset_graph(dcp: Dcp) -> ResetAnalysis:
    """Sort each update into a reset (a reset graph edge), an increment or
    neither, in one pass; then remove the variables on reset cycles and all
    that depend on them (forward along reset edges), leaving a DAG. A
    removed source has a removed target, so the edges and increments of the
    kept variables name no removed one."""
    number = {v: i for i, v in enumerate(dcp.variables)}
    succ: list[set[int]] = [set() for _ in dcp.variables]  # variable reset edges
    resets: list[tuple[Transition, DifferenceConstraint]] = []
    increments: dict[str, list[tuple[Transition, int]]] = {}
    for t in dcp.transitions:
        for u in t.updates:
            if u.rhs != u.lhs:
                resets.append((t, u))
                if isinstance(u.rhs, str):
                    succ[number[u.rhs]].add(number[u.lhs])
            elif u.offset > 0:
                increments.setdefault(u.lhs, []).append((t, u.offset))
    comp = strongly_connected_components(succ)
    size = Counter(comp)
    # variables on a reset cycle (a component of two or more), then every
    # variable reset from a removed one
    removing = {i for i, c in enumerate(comp) if size[c] > 1}
    frontier = list(removing)
    while frontier:
        for w in succ[frontier.pop()]:
            if w not in removing:
                removing.add(w)
                frontier.append(w)
    removed = {dcp.variables[i] for i in removing}
    edges = sorted((ResetEdge(src=u.rhs, trans=t, offset=u.offset, dst=u.lhs)
                    for t, u in resets if u.lhs not in removed),
                   key=lambda e: (str(e.src), e.dst, e.trans.id, e.offset))
    return ResetAnalysis(
        graph=ResetGraph(tuple(edges)), removed_vars=frozenset(removed),
        increments=tuple((v, tuple(incs))
                         for v, incs in increments.items() if v not in removed))


# ---------------------------------------------------------------------------
# soundness and optimality
# ---------------------------------------------------------------------------

def _reachable_without_reset(dcp: Dcp, graph: ResetGraph, src_loc: str, dst_loc: str,
                             var: str) -> bool:
    """Is there a location path src -> dst (the empty path counts) that never
    takes a transition resetting var?"""
    if src_loc == dst_loc:
        return True
    resetting = {e.trans.id for e in graph.into(var)}
    seen = {src_loc}
    frontier = [src_loc]
    while frontier:
        loc = frontier.pop()
        for t in dcp.outgoing(loc):
            if t.id in resetting:
                continue
            if t.target == dst_loc:
                return True
            if t.target not in seen:
                seen.add(t.target)
                frontier.append(t.target)
    return False


def optimal_reset_paths(dcp: Dcp, graph: ResetGraph, var: str,
                        cap: int = DEFAULT_RESET_PATH_CAP) -> list[ResetPath]:
    """Maximal sound reset paths ending in var, by backward extension.

    Soundness is monotone under truncation (each interior condition depends
    only on its own edge pair and the fixed last edge), so pruning unsound
    extensions is complete. The search is depth-first over an explicit
    stack, trying extensions in `graph.into` order.
    """
    results: list[ResetPath] = []
    stack = [ResetPath((e,)) for e in reversed(graph.into(var))]
    while stack:
        path = stack.pop()
        head = path.in_atom
        into = graph.into(head) if isinstance(head, str) else ()
        # the extensions all add the same interior atom and consumer edge,
        # and `path` is sound, so one check decides them all
        if into and not _reachable_without_reset(
                dcp, graph, path.edges[-1].trans.target, path.edges[0].trans.source,
                head):
            stack.extend(ResetPath((e,) + path.edges) for e in reversed(into))
            continue
        results.append(path)
        if len(results) > cap:
            raise ResetPathOverflow(f"more than {cap} optimal reset paths end in {var}")
    return results


def to_dot(graph: ResetGraph) -> str:
    """DOT rendering; zero offsets are omitted from edge labels."""
    lines = ["digraph reset_graph {"]
    nodes = dict.fromkeys(n for e in graph.edges for n in (e.src, e.dst))
    for node in sorted(nodes, key=str):
        lines.append(f'  "{node}";')
    for e in graph.edges:
        label = e.trans.id + (f",{e.offset:+d}" if e.offset else "")
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
