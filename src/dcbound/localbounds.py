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
"""

from __future__ import annotations

from dcbound.dcp import Dcp, Transition, cyclic_components, \
    strongly_connected_components

__all__ = [
    "ONE",
    "local_bound_map",
]

ONE = "1"


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


def _component_bounds(inner: list[Transition]) -> dict[str, str | None]:
    """Local bounds of the transitions inside one strongly connected
    component, trying the variables both guarded and decreased there in
    sorted order, so the smallest qualifying name wins."""
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
    return {t.id: found.get(i) for i, t in enumerate(inner)}


def local_bound_map(dcp: Dcp) -> dict[str, str | None]:
    """Map each transition id to its local bound: a variable name, ONE, or
    None (no local bound found; the transition may be unbounded). Among
    several qualifying variables the lexicographically smallest is chosen,
    for determinism."""
    bounds: dict[str, str | None] = {}
    for inner in cyclic_components(dcp.locations, dcp.transitions):
        bounds.update(_component_bounds(inner))
    return {t.id: bounds.get(t.id, ONE) for t in dcp.transitions}
