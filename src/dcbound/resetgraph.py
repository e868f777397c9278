"""Reset graphs and reset paths.

The reset graph has an edge per reset: source atom -> reset variable, labeled
with the transition and offset. Analyses that follow reset chains require the
variable part of this graph to be acyclic; variables on reset cycles (and
everything downstream of them) are removed from a working copy of the program.

A reset path is sound when each interior atom is guaranteed to be re-reset
between the completion of the chain and the next use of the edge consuming
it; the optimal paths are the maximal sound ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from dcbound.dcp import Atom, Dcp, Transition, drop_variables, \
    strongly_connected_components

__all__ = [
    "DEFAULT_RESET_PATH_CAP",
    "ResetPathOverflow",
    "ResetEdge",
    "ResetPath",
    "ResetGraph",
    "ResetAnalysis",
    "build_reset_graph",
    "is_sound",
    "optimal_reset_paths",
    "to_dot",
]

DEFAULT_RESET_PATH_CAP = 4_096


class ResetPathOverflow(Exception):
    def __init__(self, cap: int, var: str):
        super().__init__(f"more than {cap} optimal reset paths end in {var}")
        self.cap = cap
        self.var = var


@dataclass(frozen=True)
class ResetEdge:
    src: Atom
    trans: Transition
    offset: int
    dst: str  # variable name


@dataclass(frozen=True)
class ResetPath:
    """Edges ordered from the originating atom down to the final variable."""

    edges: tuple[ResetEdge, ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("a reset path has at least one edge")

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


@dataclass(frozen=True)
class ResetGraph:
    """Reset edges with adjacency built lazily, once per instance: `into`
    returns the stored tuple of edges into a variable, sorted by (source,
    transition id, offset). `path_count` memoizes per target variable on
    the graph."""

    edges: tuple[ResetEdge, ...]

    @cached_property
    def _into(self) -> dict[str, tuple[ResetEdge, ...]]:
        out: dict[str, list[ResetEdge]] = {}
        for e in sorted(self.edges, key=lambda e: (str(e.src), e.trans.id, e.offset)):
            out.setdefault(e.dst, []).append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def _path_counts(self) -> dict[str, dict[Atom, int]]:
        return {}

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


@dataclass(frozen=True)
class ResetAnalysis:
    graph: ResetGraph
    removed_vars: frozenset[str]
    pruned: Dcp  # working copy with removed-variable constraints dropped


def _raw_edges(dcp: Dcp) -> list[ResetEdge]:
    edges = []
    for v in dcp.variables:
        for t, a, c in dcp.resets(v):
            edges.append(ResetEdge(src=a, trans=t, offset=c, dst=v))
    return sorted(edges, key=lambda e: (str(e.src), e.dst, e.trans.id, e.offset))


def build_reset_graph(dcp: Dcp) -> ResetAnalysis:
    """Build the reset graph, removing variables on reset cycles plus all
    variables whose values depend on them (forward reachability along reset
    edges), so that the remaining graph is a DAG."""
    edges = _raw_edges(dcp)
    number = {v: i for i, v in enumerate(dcp.variables)}
    succ: list[set[int]] = [set() for _ in dcp.variables]
    for e in edges:
        if isinstance(e.src, str):
            succ[number[e.src]].add(number[e.dst])
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

    if removed:
        pruned = drop_variables(dcp, removed)
        edges = _raw_edges(pruned)
    else:
        pruned = dcp
    return ResetAnalysis(graph=ResetGraph(tuple(edges)),
                         removed_vars=frozenset(removed),
                         pruned=pruned)


# ---------------------------------------------------------------------------
# soundness and optimality
# ---------------------------------------------------------------------------

def _reachable_without_reset(dcp: Dcp, src_loc: str, dst_loc: str,
                             var: str) -> bool:
    """Is there a location path src -> dst (the empty path counts) that never
    takes a transition resetting var?"""
    if src_loc == dst_loc:
        return True
    resetting = {t.id for t, _, _ in dcp.resets(var)}
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


def is_sound(dcp: Dcp, path: ResetPath) -> bool:
    """Each interior atom must be reset on every location path from the end
    of the chain back to the edge that consumes it."""
    edges = path.edges
    n = len(edges)
    last = edges[-1].trans
    for k in range(n - 1):
        interior = edges[k].dst
        consumer = edges[k + 1].trans
        if _reachable_without_reset(dcp, last.target, consumer.source, interior):
            return False
    return True


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
                dcp, path.edges[-1].trans.target, path.edges[0].trans.source,
                head):
            stack.extend(ResetPath((e,) + path.edges) for e in reversed(into))
            continue
        results.append(path)
        if len(results) > cap:
            raise ResetPathOverflow(cap, var)
    return results


def to_dot(graph: ResetGraph) -> str:
    """DOT rendering; zero offsets are omitted from edge labels."""
    lines = ["digraph reset_graph {"]
    nodes = dict.fromkeys(n for e in graph.edges for n in (e.src, e.dst))
    for node in sorted(nodes, key=str):
        lines.append(f'  "{node}";')
    for e in sorted(graph.edges, key=lambda e: (str(e.src), e.dst, e.trans.id)):
        label = e.trans.id + (f",{e.offset:+d}" if e.offset else "")
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
