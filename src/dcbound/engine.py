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

Results are memoized; a query that re-enters itself while being computed
yields the undefined element for that query.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from dcbound import expr
from dcbound.dcp import Atom, Dcp, Transition, Var
from dcbound.localbounds import ONE, local_bound_map
from dcbound.resetgraph import (
    DEFAULT_RESET_PATH_CAP,
    ResetAnalysis,
    ResetPath,
    ResetPathOverflow,
    build_reset_graph,
    optimal_reset_paths,
)

__all__ = ["AnalysisMode", "Analysis", "BoundReport"]


class AnalysisMode(enum.Enum):
    FREE = "free"
    CTX = "ctx"
    OPT = "opt"

    @classmethod
    def from_name(cls, name: str) -> "AnalysisMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown mode {name!r}; expected free, ctx or opt") from None


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
                 max_reset_paths: int = DEFAULT_RESET_PATH_CAP,
                 memoize: bool = True):
        self.mode = mode
        self.original = program
        self.warnings: list[str] = []
        self._memoize = memoize
        self._max_reset_paths = max_reset_paths
        self._memo: dict[tuple[str, str], expr.BoundExpr] = {}
        self._active: set[tuple[str, str]] = set()
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

    # -- memoized recursion ------------------------------------------------

    def _cached(self, key: tuple[str, str], compute) -> expr.BoundExpr:
        if self._memoize and key in self._memo:
            return self._memo[key]
        if key in self._active:
            return expr.UNDEFINED
        self._active.add(key)
        try:
            result = compute()
        finally:
            self._active.discard(key)
        if self._memoize:
            self._memo[key] = result
        return result

    # -- core functions ------------------------------------------------------

    def incr(self, atom: Atom | str) -> expr.BoundExpr:
        """Total amount the atom's value can gain over a whole run; zero for
        rigid atoms and for variables with no positive self-update."""
        if isinstance(atom, str):
            atom = Var(atom)
        if not isinstance(atom, Var):
            return expr.IntConst(0)
        incs = self.working.increments(atom.name)
        if not incs:
            return expr.IntConst(0)
        terms = [expr.mul(self.tb(t), c) for t, c in incs]
        return expr.add(*terms)

    def vb(self, atom: Atom | str) -> expr.BoundExpr:
        """Upper bound on the atom's value anywhere it is defined."""
        if isinstance(atom, str):
            atom = Var(atom)
        if not isinstance(atom, Var):
            return atom
        v = atom.name
        if v not in self.working.variables:
            raise ValueError(f"unknown variable {v!r}")

        def compute() -> expr.BoundExpr:
            resets = self.working.resets(v)
            if not resets:
                return expr.UNDEFINED
            reset_caps = [expr.add(self.vb(a), c) for _, a, c in resets]
            return expr.add(self.incr(v), expr.maximum(*reset_caps))

        return self._cached(("VB", v), compute)

    def tb(self, t: Transition | str) -> expr.BoundExpr:
        """Upper bound on how often the transition can run."""
        if isinstance(t, str):
            t = self.working.transition(t)
        return self._cached(("TB", t.id), lambda: self._tb_compute(t))

    def _tb_compute(self, t: Transition) -> expr.BoundExpr:
        bound_var = self.zeta[t.id]
        if bound_var == ONE:
            return expr.IntConst(1)
        if bound_var is None:
            return expr.UNDEFINED
        if self.mode is AnalysisMode.FREE:
            return self._tb_free(bound_var)
        return self._tb_context(bound_var)

    def _tb_free(self, v: str) -> expr.BoundExpr:
        resets = self.working.resets(v)
        if not resets:
            return expr.UNDEFINED
        terms = [self.incr(v)]
        for rt, a, c in resets:
            terms.append(expr.mul(self.tb(rt), expr.maximum(expr.add(self.vb(a), c), 0)))
        return expr.add(*terms)

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

    def _tb_set(self, transitions: tuple[Transition, ...]) -> expr.BoundExpr:
        return expr.minimum(*[self.tb(t) for t in
                              sorted(transitions, key=lambda t: t.id)])

    def _tb_context(self, v: str) -> expr.BoundExpr:
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
        terms = [self.incr(a) for a in once]
        for k, atoms in zip(paths, charged):
            contrib = expr.mul(
                self._tb_set(k.transitions),
                expr.maximum(expr.add(self.vb(k.in_atom), k.offset), 0))
            terms.append(expr.add(contrib, *[self.incr(a) for a in atoms]))
        return expr.add(*terms)

    def complexity(self) -> expr.BoundExpr:
        back = self.original.back_edges()
        if not back:
            return expr.IntConst(0)
        return expr.add(*[self.tb(t.id) for t in back])

    # -- reporting -----------------------------------------------------------

    def report(self) -> BoundReport:
        tb = {t.id: self.tb(t) for t in self.working.transitions}
        vb = {v: self.vb(v) for v in self.working.variables}
        for v in self.original.variables:
            vb.setdefault(v, expr.UNDEFINED)  # pruned away entirely
        return BoundReport(
            mode=self.mode, tb=tb, vb=vb,
            complexity=self.complexity(), warnings=list(self.warnings))
