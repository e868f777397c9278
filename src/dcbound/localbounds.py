"""Local bounds: per-transition counter variables found via strongly
connected components of the control-flow graph.

A transition on no cycle gets the marker ONE (it runs at most once). A
variable v is accepted as the local bound of a transition t on a cycle when
t lies on no cycle once the transitions that decrease v by a constant are
removed, and on no cycle once the transitions that guard v > 0 are removed.
This is the same as asking that every simple cycle through t guards and
decreases v, because every closed walk through t contains a simple cycle
through t. Transitions on a cycle with no such variable are recorded as
having no local bound, which later turns their transition bound into the
undefined element.

The local bound pays for the runs of t that follow a guard(v) transition
in the same visit to t's component, but not for a run before the first
one. Two runs of t in one visit enclose a closed walk through t, which
guards v, so each visit has at most one such run. It has none unless t is
*exposed*: t does not guard v itself, and t's source is reachable inside the
component, without a guard(v) transition, from where a visit starts (the
target of a transition entering the component, or the entry location if
the component holds it). An entering transition joins two components, so
it lies on no cycle and runs at most once, and the visits number at most
k, the count of those starts. An exposed t therefore runs at most TB(v) + k
times, and the map records k for it in `entries`.
"""

from __future__ import annotations

from dcbound.dcp import Dcp, Transition, cyclic_components, \
    strongly_connected_components

__all__ = [
    "ONE",
    "LocalBounds",
    "local_bound_map",
]

ONE = "1"


class LocalBounds(dict):
    """Transition id -> local bound: a variable name, ONE, or None (no local
    bound found; the transition may be unbounded). `entries` maps each
    exposed transition to the number of ways into its component."""

    def __init__(self, bounds: dict[str, str | None], entries: dict[str, int]):
        super().__init__(bounds)
        self.entries = entries


def _on_no_cycle(ends: list[tuple[int, int]], n: int, removed: set[int],
                 candidates: set[int]) -> set[int]:
    """The candidate edges (indices into `ends`, pairs of nodes < n) that lie
    on no cycle once the `removed` edges are taken out."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, (s, t) in enumerate(ends):
        if i not in removed:
            succ[s].append(t)
    comp = strongly_connected_components(succ)
    return {i for i in candidates
            if i in removed or comp[ends[i][0]] != comp[ends[i][1]]}


def _component_bounds(inner: list[Transition], starts: list[str],
                      bounds: dict[str, str | None],
                      entries: dict[str, int]) -> None:
    """Record the local bounds of the transitions inside one strongly
    connected component, trying the variables both guarded and decreased
    there in sorted order, so the smallest qualifying name wins; and record
    the exposed ones, whose visits start at `starts`, in `entries`."""
    node: dict[str, int] = {}
    for t in inner:
        node.setdefault(t.source, len(node))
        node.setdefault(t.target, len(node))
    ends = [(node[t.source], node[t.target]) for t in inner]
    guards: dict[str, set[int]] = {}
    decs: dict[str, set[int]] = {}
    for i, t in enumerate(inner):
        for g in t.guard:
            guards.setdefault(g, set()).add(i)
        for u in t.updates:
            if u.offset < 0 and u.rhs == u.lhs:
                decs.setdefault(u.lhs, set()).add(i)

    found: dict[int, str] = {}
    still_open = set(range(len(inner)))
    for v in sorted(guards.keys() & decs.keys()):
        g, d = guards[v], decs[v]
        # removing a superset leaves a subgraph: the other pass is implied
        passes = [d] if d <= g else [g] if g <= d else [d, g]
        bounded = still_open
        for removed in passes:
            bounded = _on_no_cycle(ends, len(node), removed, bounded)
        for i in bounded:
            found[i] = v
        still_open = still_open - bounded
        if not still_open:
            break
    for i, t in enumerate(inner):
        bounds[t.id] = found.get(i)

    unguarded: dict[str, list[int]] = {}  # variable -> bounded, not guarding it
    for i, v in found.items():
        if i not in guards[v]:
            unguarded.setdefault(v, []).append(i)
    edges_from: list[list[int]] = [[] for _ in node]
    for i, (s, _) in enumerate(ends):
        edges_from[s].append(i)
    for v, candidates in unguarded.items():
        g = guards[v]
        seen = {node[loc] for loc in starts}
        work = list(seen)
        while work:
            for i in edges_from[work.pop()]:
                w = ends[i][1]
                if w not in seen and i not in g:
                    seen.add(w)
                    work.append(w)
        for i in candidates:
            if ends[i][0] in seen:
                entries[inner[i].id] = len(starts)


def local_bound_map(dcp: Dcp) -> LocalBounds:
    """Map each transition id to its local bound. Among several qualifying
    variables the lexicographically smallest is chosen, for determinism."""
    groups = cyclic_components(dcp.locations, dcp.transitions)
    group_of = {t.source: g for g, inner in enumerate(groups) for t in inner}
    starts: list[list[str]] = [[] for _ in groups]
    for t in dcp.transitions:
        g = group_of.get(t.target)
        if g is not None and group_of.get(t.source) != g:
            starts[g].append(t.target)
    if dcp.entry in group_of:
        starts[group_of[dcp.entry]].append(dcp.entry)
    bounds: dict[str, str | None] = {}
    entries: dict[str, int] = {}
    for inner, into in zip(groups, starts):
        _component_bounds(inner, into, bounds, entries)
    return LocalBounds({t.id: bounds.get(t.id, ONE) for t in dcp.transitions},
                       entries)
