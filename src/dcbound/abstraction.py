"""Abstraction of concrete linear programs into difference constraint programs.

Norms are integer-valued linear expressions over the concrete state
(`LinExpr`); those guessed from loop conditions start the norm table at
depth 0. Each norm e is taken from a FIFO queue once, and for each concrete
transition its post-state value is computed by substituting the updates.
The result r differs from a norm by a constant exactly when both have the
same coefficients, so r is matched by its coefficient tuple: against e
itself, else against the first known norm with that tuple, and the offset
is the difference of the constants. Otherwise its non-constant part enters
the table one deeper than e and its constant becomes the offset. Across a
transition that assigns none of e's names (a havoc counts as an
assignment), r is e: substitution replaces only assigned names, and no
transition assigns a parameter. Such a pair is not executed; it gets e's
one step e' <= e, and the DCP one `DifferenceConstraint` v' <= v per
variable, shared by every transition that keeps its norm. Norms over
parameters only become symbolic constants. Discovery never goes past
depth limit + 1: a variable norm first found there is discarded, with one
warning naming it, together with each constraint that finds it, and it is
never expanded. A guard e > 0 is added where e is literally one of the
positivity facts of the concrete guard; no norm that survives is constant,
because guessing skips constant facts and discovery never enters one.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping

from dcbound.dcp import (
    Atom,
    Dcp,
    DifferenceConstraint,
    Transition,
    cyclic_components,
    enforce_well_definedness,
    validate,
)
from dcbound.expr import IntConst, SymConst
from dcbound.program import HAVOC, ConcreteProgram, LinExpr
from dcbound.record import Frozen, Record

__all__ = [
    "DEFAULT_DEPTH_LIMIT",
    "AbstractStep",
    "AbstractionResult",
    "guess_norms",
    "sym_exec_norm",
    "abstract_transition",
    "abstract_program",
]

DEFAULT_DEPTH_LIMIT = 5


def _counter_updates(t: Transition) -> set[str]:
    """Variables this transition moves by a nonzero constant: v := v + c."""
    out = set()
    for v, rhs in t.updates:
        if rhs is HAVOC:
            continue
        if rhs.const != 0 and rhs.coeffs == ((v, 1),):
            out.add(v)
    return out


def _loop_counters(prog: ConcreteProgram) -> dict[str, set[str]]:
    """Map each transition on a loop to the counters of every loop that
    contains it (see `guess_norms`), decomposing with an explicit work list
    rather than recursion."""
    preds: dict[str, set[str]] = {loc: set() for loc in prog.locations}
    for t in prog.transitions:
        preds[t.target].add(t.source)
    loops: list[tuple[list[Transition], int]] = []  # (loop, parent)
    back_of: dict[str, int] = {}    # id -> the single-header loop it closes
    innermost: dict[str, int] = {}  # transition id -> its innermost loop
    work = [(prog.locations, list(prog.transitions), -1)]  # -1: no loop
    while work:
        locations, transitions, outer = work.pop()
        for inner in cyclic_components(locations, transitions):
            k = len(loops)
            loops.append((inner, outer))
            locs = list(dict.fromkeys(t.source for t in inner))
            members = set(locs)
            headers = {loc for loc in locs if preds[loc] - members} or {min(locs)}
            for t in inner:
                innermost[t.id] = k  # a nested loop overwrites this later
                if t.target in headers and len(headers) == 1:
                    back_of[t.id] = k
            work.append((locs, [t for t in inner if t.target not in headers], k))
    # a parent loop precedes its children, so its counters are ready
    counters: dict[int, set[str]] = {-1: set()}
    for k, (inner, outer) in enumerate(loops):
        counters[k] = counters[outer].union(*(
            _counter_updates(t) for t in inner if back_of.get(t.id, k) == k))
    return {tid: counters[k] for tid, k in innermost.items()}


def guess_norms(prog: ConcreteProgram) -> list[LinExpr]:
    """Initial norms from loop conditions, read off the loop-nesting forest.

    Each strongly connected component with a cycle is a loop. Its headers
    are the locations that a transition from outside the component enters
    (its smallest location if there is none; every entry is a header, as in
    Steensgaard's forest), and its transitions into a header are its back
    edges. Removing the back edges and decomposing the rest again gives the
    loops nested inside. A loop's counters are the variables moved by a
    nonzero constant on its transitions, except the back edges of nested
    loops with a single header: a simple cycle that leaves such a loop can
    come back only through its header, so it never takes them.

    A guard relation on transition t contributes its positivity facts
    (e.g. a > b gives a-b, a >= b gives a-b+1) when it names a counter of
    some loop that contains t: such a condition can limit how long that
    loop keeps running. A variable that a simple cycle through t moves by a
    constant is a counter of the smallest loop holding that cycle, so it is
    seen. Conditions on no loop contribute nothing.
    """
    counters = _loop_counters(prog)
    norms: dict[LinExpr, None] = {}
    for t in prog.transitions:
        for rel in t.guard:
            if not (rel.lhs.names | rel.rhs.names) & counters.get(t.id, set()):
                continue
            for fact in rel.facts():
                if fact.is_const or _names_only_params(fact, prog):
                    continue
                norms[fact] = None
    return list(norms)


def _names_only_params(e: LinExpr, prog: ConcreteProgram) -> bool:
    return e.names <= set(prog.sym_consts)


def sym_exec_norm(e: LinExpr, t: Transition) -> LinExpr | None:
    """e after t: substitute every updated variable; None if a variable of e
    is havoced (no difference constraint can be derived)."""
    updates = dict(t.updates)
    if any(updates.get(name) is HAVOC for name in e.names):
        return None
    return e.substitute(updates)


class AbstractStep(Frozen):
    """One derived constraint e' <= rhs + offset. rhs is a constant-free
    linear expression, or constant-only, in which case the constraint's
    right side is the integer atom rhs.const."""

    def __init__(self, rhs: LinExpr, offset: int):
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "offset", offset)


def abstract_transition(e: LinExpr, t: Transition,
                        index: Mapping[tuple, LinExpr]) -> AbstractStep | None:
    """Derive the constraint for norm e across t, or None on havoc.

    The post-state value r minus a norm is constant exactly when both have
    the same coefficient tuple. So the target is e itself when r has e's
    coefficients (self-increment), else the norm that `index` maps r's
    coefficients to; the offset is the difference of the constants.
    Otherwise the integer constant is split off, and the non-constant
    remainder is a norm not in `index`. Guards are not derived here:
    `abstract_program` makes a norm a guard of t exactly when it is one of
    the positivity facts of t's guard, and no norm it keeps is constant.
    """
    r = sym_exec_norm(e, t)
    if r is None:
        return None
    if r.is_const:
        return AbstractStep(rhs=LinExpr(r.const), offset=0)
    cand = e if r.coeffs == e.coeffs else index.get(r.coeffs)
    if cand is not None:
        return AbstractStep(rhs=cand, offset=r.const - cand.const)
    return AbstractStep(rhs=r.drop_const(), offset=r.const)


class AbstractionResult(Record):
    def __init__(self, dcp: Dcp, norm_vars: dict[str, LinExpr],
                 derived_consts: dict[str, LinExpr], warnings: list[str]):
        self.dcp = dcp
        self.norm_vars = norm_vars  # dcp variable name -> norm
        self.derived_consts = derived_consts  # dcp constant name -> defining expression
        self.warnings = warnings

    def rename_comment(self) -> list[str]:
        out = [f"{name} := {e.name()}"
               for name, e in sorted(self.norm_vars.items())
               if name != e.name()]
        out += [f"{name} := {e.name()} (symbolic constant)"
                for name, e in sorted(self.derived_consts.items())]
        return out


def abstract_program(prog: ConcreteProgram,
                     depth_limit: int = DEFAULT_DEPTH_LIMIT, *,
                     keep_names: bool = False) -> AbstractionResult:
    """Abstract a concrete program into a deterministic, well-defined DCP."""
    # every known norm, in discovery order, with its discovery depth; the
    # guessed norms are never over parameters only
    depth = dict.fromkeys(guess_norms(prog), 0)
    # coefficient tuple -> the first norm of `depth` with it, kept in step
    # with `depth`; guessed norms such as (n-i) and (n-i+1) can share one
    index = {e.coeffs: e for e in reversed(depth)}
    cut: set[LinExpr] = set()  # variable norms first found past the limit

    # fixpoint: derive one constraint per (norm, transition); a transition
    # that assigns none of the norm's names keeps it, so it is not executed
    constraints: dict[tuple[LinExpr, str], AbstractStep] = {}
    assigned = [(t, {v for v, _ in t.updates}) for t in prog.transitions]
    queue = deque(depth)
    while queue:
        e = queue.popleft()
        d = depth[e] + 1  # the depth of a norm that e's constraints discover
        names = e.names
        same = AbstractStep(rhs=e, offset=0)
        for t, changed in assigned:
            if names.isdisjoint(changed):
                constraints[(e, t.id)] = same
                continue
            step = abstract_transition(e, t, index)
            if step is None:
                continue  # havoc: no constraint for this norm here
            new = step.rhs
            if not new.is_const and new not in depth:
                if _names_only_params(new, prog):
                    depth[new] = d
                elif d > depth_limit:
                    cut.add(new)
                    continue
                else:
                    depth[new] = d
                    queue.append(new)
                index.setdefault(new.coeffs, new)
            constraints[(e, t.id)] = step
    warnings = [f"discarded norm {e.name()} (depth limit {depth_limit})"
                for e in sorted(cut, key=LinExpr.name)]
    var_norms = [e for e in depth if not _names_only_params(e, prog)]
    const_norms = [e for e in depth if _names_only_params(e, prog)]

    # names
    taken = set(prog.sym_consts) | set(prog.locations) | {t.id for t in prog.transitions}

    def fresh(name: str) -> str:
        while name in taken:
            name += "_"
        taken.add(name)
        return name

    var_name = {e: fresh(e.name() if keep_names else f"v{i}")
                for i, e in enumerate(var_norms)}
    const_name: dict[LinExpr, str] = {}
    derived: dict[str, LinExpr] = {}
    for e in const_norms:
        if len(e.coeffs) == 1 and e.coeffs[0][1] == 1 and e.const == 0:
            const_name[e] = e.coeffs[0][0]  # a bare parameter
            continue
        name = fresh(e.name() if keep_names else f"k{len(derived)}")
        const_name[e] = name
        derived[name] = e

    def atom_of(rhs: LinExpr) -> Atom:
        if rhs.is_const:
            return IntConst(rhs.const)
        if rhs in var_name:
            return var_name[rhs]
        return SymConst(const_name[rhs])

    # one v' <= v per variable, shared by the transitions that keep its norm
    unchanged = {e: DifferenceConstraint(var_name[e], var_name[e], 0) for e in var_norms}
    transitions: list[Transition] = []
    for t in prog.transitions:
        facts = {f for rel in t.guard for f in rel.facts()}
        ups = []
        for e in var_norms:
            step = constraints.get((e, t.id))
            if step is None:
                continue
            ups.append(unchanged[e] if step.rhs is e and step.offset == 0 else
                       DifferenceConstraint(var_name[e], atom_of(step.rhs), step.offset))
        guard = tuple(sorted(var_name[e] for e in var_norms if e in facts))
        transitions.append(Transition(
            id=t.id, source=t.source, target=t.target, guard=guard,
            updates=tuple(sorted(ups, key=lambda u: u.lhs)), line=t.line))

    raw = Dcp(
        locations=prog.locations,
        transitions=tuple(sorted(transitions, key=lambda t: t.id)),
        entry=prog.entry, exit=prog.exit,
        variables=tuple(sorted(var_name.values())),
        sym_consts=tuple(sorted(set(prog.sym_consts) | set(derived))),
    )
    final, repair_notes = enforce_well_definedness(raw)
    warnings += repair_notes
    warnings += [f"dropped variable {name} := {e.name()} during the "
                 "well-definedness repair"
                 for e, name in var_name.items() if name not in final.variables]
    diags = validate(final)
    if diags:  # the construction is supposed to rule this out
        raise AssertionError(
            "abstraction produced an invalid program: "
            + "; ".join(str(d) for d in diags))
    kept_names = set(final.variables)
    return AbstractionResult(
        dcp=final,
        norm_vars={name: e for e, name in var_name.items()
                   if name in kept_names},
        derived_consts=derived,
        warnings=warnings,
    )
