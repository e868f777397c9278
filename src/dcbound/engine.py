"""Transition/variable bound computation and whole-program complexity.

Three analysis modes share one variable-bound definition and differ in how a
transition bound accounts for the resets of its local bound:

  FREE  uses single-edge resets: Incr(v) plus, per reset (t, a, c), the
        contribution TB(t) * max(VB(a) + c, 0).
  CTX   follows maximal sound reset chains instead: per chain k, the
        contribution TB(trn(k)) * max(VB(in(k)) + c(k), 0) plus the increment
        totals of every atom on the chain, where the bound of a transition
        set is the minimum over its members.
  OPT   refines CTX: atoms with a single flow path into the local bound have
        their increment total counted once globally instead of once per chain.

TB(t) depends on t only through its local bound v, so it is 1, undef or
the node ("TB", v); with ("VB", v) per variable these nodes are solved once.
Each node's rule reads other nodes only through `get` and never branches on
a value it reads, so one run with a recording `get` lists its dependencies.
Nodes are evaluated bottom-up in strongly-connected-component order, without
recursion; a node on a dependency cycle (a component of two or more, or a
self-edge) is undefined, and undef absorbs every operator that reads it.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from dcbound import expr
from dcbound.dcp import Atom, Dcp, Transition, strongly_connected_components
from dcbound.localbounds import ONE, local_bound_map
from dcbound.resetgraph import DEFAULT_RESET_PATH_CAP, ResetAnalysis, ResetPath, \
    ResetPathOverflow, build_reset_graph, optimal_reset_paths

__all__ = ["AnalysisMode", "Analysis", "BoundReport"]

Key = tuple[str, str]  # ("TB" | "VB", variable name)
Get = Callable[[Key], expr.BoundExpr]


class AnalysisMode(enum.Enum):
    FREE = "free"
    CTX = "ctx"
    OPT = "opt"


@dataclass
class BoundReport:
    mode: AnalysisMode
    tb: dict[str, expr.BoundExpr]
    vb: dict[str, expr.BoundExpr]
    complexity: expr.BoundExpr
    warnings: list[str] = field(default_factory=list)

    def render(self, include_vb: bool = False) -> str:
        lines = [f"TB({tid}) = {b}" for tid, b in sorted(self.tb.items())]
        if include_vb:
            lines += [f"VB({v}) = {b}" for v, b in sorted(self.vb.items())]
        lines.append(f"complexity = {self.complexity}")
        return "\n".join(lines) + "\n"


class Analysis:
    """One bound analysis of one program in one mode.

    Not thread-safe; run separate analyses in separate instances.
    """

    def __init__(self, program: Dcp, mode: AnalysisMode, *,
                 max_reset_paths: int = DEFAULT_RESET_PATH_CAP):
        self.mode = mode
        self.warnings: list[str] = []
        self._max_reset_paths = max_reset_paths
        self._paths: dict[str, list[ResetPath] | None] = {}

        self._reset: ResetAnalysis | None = None
        if mode is AnalysisMode.FREE:
            self.working = program
        else:
            self._reset = build_reset_graph(program)
            self.working = self._reset.pruned
            if self._reset.removed_vars:
                names = ", ".join(sorted(self._reset.removed_vars))
                self.warnings.append(
                    f"removed variables on reset cycles (and dependents): {names}")
        self.zeta = local_bound_map(self.working)

    # -- the solve -----------------------------------------------------------

    @cached_property
    def _bounds(self) -> dict[Key, expr.BoundExpr]:
        """Every node's bound, solved after the nodes it reads (ascending
        component numbers); a rule that read none keeps its recorded value."""
        keys = [("TB", v) for v in sorted(set(self.zeta.values()) - {None, ONE})]
        keys += [("VB", v) for v in self.working.variables]
        number = {key: i for i, key in enumerate(keys)}
        succ: list[set[int]] = [set() for _ in keys]
        recorded = [self._rule(key, lambda dep, i=i:
                               succ[i].add(number[dep]) or expr.UNDEFINED)
                    for i, key in enumerate(keys)]
        comp = strongly_connected_components(succ)
        size = Counter(comp)
        bounds: dict[Key, expr.BoundExpr] = {}
        for i in sorted(range(len(keys)), key=comp.__getitem__):
            if size[comp[i]] > 1 or i in succ[i]:
                bounds[keys[i]] = expr.UNDEFINED
            else:
                bounds[keys[i]] = (self._rule(keys[i], bounds.__getitem__)
                                   if succ[i] else recorded[i])
        return bounds

    # -- rules: bounds are read only through `get` ---------------------------

    def _rule(self, key: Key, get: Get) -> expr.BoundExpr:
        kind, v = key
        if kind == "TB" and self.mode is not AnalysisMode.FREE:
            return self._tb_context(v, get)
        resets = self.working.resets(v)
        if not resets:
            return expr.UNDEFINED
        caps = [expr.add(self._vb(a, get), c) for _, a, c in resets]
        if kind == "VB":
            return expr.add(self._incr(v, get), expr.maximum(*caps))
        return expr.add(self._incr(v, get), *[  # FREE: one term per reset
            expr.mul(self._tb(t, get), expr.maximum(cap, 0))
            for (t, _, _), cap in zip(resets, caps)])

    def _tb(self, t: Transition, get: Get) -> expr.BoundExpr:
        bound_var = self.zeta[t.id]
        if bound_var == ONE:
            return expr.IntConst(1)
        if bound_var is None:
            return expr.UNDEFINED
        return get(("TB", bound_var))

    def _vb(self, atom: Atom, get: Get) -> expr.BoundExpr:
        return get(("VB", atom)) if isinstance(atom, str) else atom

    def _incr(self, atom: Atom, get: Get) -> expr.BoundExpr:
        if not isinstance(atom, str):
            return expr.IntConst(0)
        incs = self.working.increments(atom)
        if not incs:
            return expr.IntConst(0)
        return expr.add(*[expr.mul(self._tb(t, get), c) for t, c in incs])

    def _reset_paths(self, v: str) -> list[ResetPath] | None:
        if v not in self._paths:
            assert self._reset is not None
            try:
                self._paths[v] = optimal_reset_paths(
                    self.working, self._reset.graph, v, self._max_reset_paths)
            except ResetPathOverflow as exc:
                self.warnings.append(str(exc))
                self._paths[v] = None
        return self._paths[v]

    def _tb_context(self, v: str, get: Get) -> expr.BoundExpr:
        paths = self._reset_paths(v)
        if not paths:
            return expr.UNDEFINED
        assert self._reset is not None
        graph = self._reset.graph

        # The atoms charged once globally (OPT: those with a single flow
        # path into v), and per chain the atoms charged on that chain.
        once: list[Atom] = []
        charged: list[tuple[Atom, ...]] = []
        for k in paths:
            if self.mode is AnalysisMode.CTX:
                charged.append(k.atoms)
                continue
            multi = []
            for a in k.atoms:
                if graph.path_count(a, v) > 1:
                    multi.append(a)
                elif a not in once:
                    once.append(a)
            charged.append(tuple(multi))
        terms = [self._incr(a, get) for a in once]
        for k, atoms in zip(paths, charged):
            contrib = expr.mul(
                expr.minimum(*[self._tb(t, get) for t in k.transitions]),
                expr.maximum(expr.add(self._vb(k.in_atom, get), k.offset), 0))
            terms.append(expr.add(contrib, *[self._incr(a, get) for a in atoms]))
        return expr.add(*terms)

    # -- queries -------------------------------------------------------------

    def incr(self, atom: Atom) -> expr.BoundExpr:
        """Total amount the atom's value can gain over a whole run; zero for
        rigid atoms and for variables with no positive self-update."""
        return self._incr(atom, self._bounds.__getitem__)

    def vb(self, atom: Atom) -> expr.BoundExpr:
        """Upper bound on the atom's value anywhere it is defined."""
        if isinstance(atom, str) and atom not in self.working.variables:
            raise ValueError(f"unknown variable {atom!r}")
        return self._vb(atom, self._bounds.__getitem__)

    def tb(self, t: Transition | str) -> expr.BoundExpr:
        """Upper bound on how often the transition can run."""
        if isinstance(t, str):
            t = self.working.transition(t)
        return self._tb(t, self._bounds.__getitem__)

    def complexity(self) -> expr.BoundExpr:
        back = self.working.back_edges()
        if not back:
            return expr.IntConst(0)
        return expr.add(*[self.tb(t.id) for t in back])

    # -- reporting -----------------------------------------------------------

    def report(self) -> BoundReport:
        tb = {t.id: self.tb(t) for t in self.working.transitions}
        vb = {v: self.vb(v) for v in self.working.variables}
        return BoundReport(
            mode=self.mode, tb=tb, vb=vb,
            complexity=self.complexity(), warnings=list(self.warnings))
