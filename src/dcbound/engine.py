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

Every mode reads the program as given through R(v) = `graph.into(v)` and
I(v) = `increments_of(v)`, which leave out the variables the reset analysis
removes (on reset cycles, or reset from one); no removed variable is a local
bound either. A kept variable's guards and updates mention no removed one,
so this analyses the input with the removed variables' guards and
constraints dropped, which only adds runs: each bound covers the input.

TB(t) is 1, undef, the node ("TB", v) of its local bound v, or, when t is
exposed (see `localbounds`), that node plus the number of ways into t's
component; with ("VB", v) per variable these nodes are solved once.
Each node's rule reads other nodes only through `get` and never branches on
a value it reads, so one run with a recording `get` lists its dependencies.
Nodes are evaluated bottom-up in strongly-connected-component order, without
recursion; a node on a dependency cycle (a component of two or more, or a
self-edge) is undefined, and undef absorbs every operator that reads it.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Callable
from functools import cached_property

from dcbound import expr
from dcbound.dcp import Atom, Dcp, Transition, require_valid, \
    strongly_connected_components
from dcbound.localbounds import ONE, local_bound_map
from dcbound.record import Record
from dcbound.resetgraph import DEFAULT_RESET_PATH_CAP, ResetPath, ResetPathOverflow, \
    build_reset_graph, optimal_reset_paths

__all__ = ["AnalysisMode", "Analysis", "BoundReport"]

Key = tuple[str, str]  # ("TB" | "VB", variable name)
Get = Callable[[Key], expr.BoundExpr]


class AnalysisMode(enum.Enum):
    FREE = "free"
    CTX = "ctx"
    OPT = "opt"


class BoundReport(Record):
    def __init__(self, mode: AnalysisMode, tb: dict[str, expr.BoundExpr],
                 vb: dict[str, expr.BoundExpr], complexity: expr.BoundExpr,
                 warnings: list[str] | None = None):
        self.mode = mode
        self.tb = tb
        self.vb = vb
        self.complexity = complexity
        self.warnings = [] if warnings is None else warnings

    def render(self, include_vb: bool = False) -> str:
        lines = [f"TB({tid}) = {b}" for tid, b in sorted(self.tb.items())]
        if include_vb:
            lines += [f"VB({v}) = {b}" for v, b in sorted(self.vb.items())]
        lines.append(f"complexity = {self.complexity}")
        return "\n".join(lines) + "\n"


class Analysis:
    """One bound analysis of one program in one mode. It takes only programs
    that `validate` accepts and raises DcpError with its diagnostics on any
    other. Not thread-safe; run separate analyses in separate instances.
    """

    def __init__(self, program: Dcp, mode: AnalysisMode, *,
                 max_reset_paths: int = DEFAULT_RESET_PATH_CAP):
        require_valid(program)
        self.mode = mode
        self._max_reset_paths = max_reset_paths
        self._paths: dict[str, list[ResetPath] | None] = {}
        self._program = program
        self._reset = build_reset_graph(program)
        self.warnings = self._reset.warnings
        self.zeta = local_bound_map(program, self._reset.removed_vars)

    # -- the solve -----------------------------------------------------------

    @cached_property
    def _bounds(self) -> dict[Key, expr.BoundExpr]:
        """Every node's bound, solved after the nodes it reads (ascending
        component numbers); a rule that read none keeps its recorded value."""
        keys = [("TB", v) for v in sorted(set(self.zeta.values()) - {None, ONE})]
        keys += [("VB", v) for v in self._program.variables]
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
        resets = self._reset.graph.into(v)
        if not resets:
            return expr.UNDEFINED
        caps = [expr.add(self._vb(e.src, get), e.offset) for e in resets]
        if kind == "VB":
            return expr.add(self._incr(v, get), expr.maximum(*caps))
        return expr.add(self._incr(v, get), *[  # FREE: one term per reset
            expr.mul(self._tb(e.trans, get), expr.maximum(cap, 0))
            for e, cap in zip(resets, caps)])

    def _tb(self, t: Transition, get: Get) -> expr.BoundExpr:
        bound_var = self.zeta[t.id]
        if bound_var == ONE:
            return expr.IntConst(1)
        if bound_var is None:
            return expr.UNDEFINED
        bound = get(("TB", bound_var))
        entries = self.zeta.entries.get(t.id)
        return expr.add(bound, entries) if entries else bound

    def _vb(self, atom: Atom, get: Get) -> expr.BoundExpr:
        return get(("VB", atom)) if isinstance(atom, str) else atom

    def _incr(self, atom: Atom, get: Get) -> expr.BoundExpr:
        incs = self._reset.increments_of(atom)  # none for a rigid atom
        if not incs:
            return expr.IntConst(0)
        return expr.add(*[expr.mul(self._tb(t, get), c) for t, c in incs])

    def _reset_paths(self, v: str) -> list[ResetPath] | None:
        if v not in self._paths:
            try:
                self._paths[v] = optimal_reset_paths(
                    self._program, self._reset.graph, v, self._max_reset_paths)
            except ResetPathOverflow as exc:
                self.warnings.append(str(exc))
                self._paths[v] = None
        return self._paths[v]

    def _tb_context(self, v: str, get: Get) -> expr.BoundExpr:
        paths = self._reset_paths(v)
        if not paths:
            return expr.UNDEFINED
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

    def vb(self, atom: Atom) -> expr.BoundExpr:
        """Upper bound on the atom's value anywhere it is defined."""
        if isinstance(atom, str) and atom not in self._program.variables:
            raise ValueError(f"unknown variable {atom!r}")
        return self._vb(atom, self._bounds.__getitem__)

    def tb(self, t: Transition | str) -> expr.BoundExpr:
        """Upper bound on how often the transition can run."""
        if isinstance(t, str):
            try:
                t = next(x for x in self._program.transitions if x.id == t)
            except StopIteration:
                raise ValueError(f"unknown transition {t!r}") from None
        return self._tb(t, self._bounds.__getitem__)

    def complexity(self) -> expr.BoundExpr:
        back = self._program.back_edges()
        if not back:
            return expr.IntConst(0)
        return expr.add(*[self.tb(t) for t in back])

    # -- reporting -----------------------------------------------------------

    def report(self) -> BoundReport:
        tb = {t.id: self.tb(t) for t in self._program.transitions}
        vb = {v: self.vb(v) for v in self._program.variables}
        return BoundReport(
            mode=self.mode, tb=tb, vb=vb,
            complexity=self.complexity(), warnings=list(self.warnings))
