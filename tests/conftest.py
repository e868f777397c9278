import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dcbound.abstraction import AbstractStep, sym_exec_norm
from dcbound.dcp import (
    _INT_RE,
    _TRANS_RE,
    _UPDATE_RE,
    Dcp,
    DcpError,
    DifferenceConstraint,
    Diagnostic,
    Transition,
    defined_at,
    parse_dcp,
    read_source,
    validate,
)
from dcbound.expr import IntConst, SymConst
from dcbound.program import LinExpr, parse_program

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"


def load_dcp(name: str):
    return parse_dcp((DATA / name).read_text())


def load_prog(name: str):
    return parse_program((DATA / name).read_text())


def families():
    """The benchmark's program generators, `bench/families.py`."""
    if "families" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "families", ROOT / "bench" / "families.py")
        sys.modules["families"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["families"])
    return sys.modules["families"]


@pytest.fixture
def data_dir() -> Path:
    return DATA


def simple_cycles(locations, edges):
    """All edge-level simple cycles of a directed multigraph, as tuples of
    edges: a test reference for rules stated over simple cycles.

    Each cycle is anchored at its smallest location and the interior visits
    no location twice, so parallel edges yield distinct cycles and every
    cycle appears exactly once. Starts are taken in location order and
    children in edge-id order. The count can be exponential in the size of
    the graph, so only small graphs belong here.
    """
    order = {loc: i for i, loc in enumerate(sorted(locations))}
    outgoing = {loc: [] for loc in order}
    for e in sorted(edges, key=lambda e: e.id):
        outgoing[e.source].append(e)

    cycles = []
    for start, s in order.items():
        path = []
        on_path = {start}
        work = [iter(outgoing[start])]
        while work:
            for e in work[-1]:
                if order[e.target] < s:
                    continue
                if e.target == start:
                    cycles.append(tuple(path + [e]))
                elif e.target not in on_path:
                    path.append(e)
                    on_path.add(e.target)
                    work.append(iter(outgoing[e.target]))
                    break
            else:
                work.pop()
                if path:
                    on_path.discard(path.pop().target)
    return cycles


def is_sound(d, path):
    """Chain soundness, a test reference for `optimal_reset_paths`: each
    interior atom of the reset path must be reset on every location path
    (the empty one included) from the target of the chain's last transition
    to the source of the transition that consumes the atom. A round-robin
    scan collects the locations reachable without such a reset."""
    last = path.edges[-1].trans
    for edge, consumer in zip(path.edges, path.edges[1:]):
        var = edge.dst
        reached = {last.target}
        changed = True
        while changed:
            changed = False
            for t in d.transitions:
                if (t.source in reached and t.target not in reached
                        and not any(u.lhs == var and u.rhs != var
                                    for u in t.updates)):
                    reached.add(t.target)
                    changed = True
        if consumer.trans.source in reached:
            return False
    return True


def ref_liveness(d):
    """Round-robin backward fixpoint, a test reference: v is live at l when
    some path from l reaches a read of v (a guard or a right-hand side) with
    no transition on the way that constrains v."""
    live = {loc: set() for loc in d.locations}
    changed = True
    while changed:
        changed = False
        for t in d.transitions:
            reads = set(t.guard) | {u.rhs for u in t.updates
                                    if isinstance(u.rhs, str)}
            constrained = {u.lhs for u in t.updates}
            wanted = reads | (live.get(t.target, set()) - constrained)
            cur = live[t.source]
            if not wanted <= cur:
                cur |= wanted
                changed = True
    return live


def ref_well_definedness_messages(d):
    """The well-definedness diagnostics of the liveness check, a test
    reference for `validate`: one for each (location, variable) pair, in
    sorted order, where the variable is live at the location and the
    location is the entry or some transition into it leaves the variable
    unconstrained."""
    live = ref_liveness(d)
    defined = defined_at(d)
    messages = []
    for loc in sorted(d.locations):
        for v in sorted(live[loc]):
            if loc == d.entry:
                messages.append(f"variable {v!r} may be read at the entry "
                                f"{loc!r} before it is constrained")
            elif v not in defined[loc]:
                missing = [t.id for t in d.incoming(loc)
                           if all(u.lhs != v for u in t.updates)]
                messages.append(
                    f"variable {v!r} is live at {loc!r} but transition(s) "
                    f"{', '.join(sorted(missing))} into {loc!r} do not constrain it")
    return messages


def ref_enforce_well_definedness(d):
    """The round loop, a test reference for `enforce_well_definedness`:
    each round reruns `defined_at`, drops every guard and constraint that
    reads a name not defined at the transition's source and rebuilds every
    transition, until a round drops nothing; then constraint-less variables
    are pruned."""
    warnings = []
    cur = d
    while True:
        defined = defined_at(cur)
        changed = False
        new_ts = []
        for t in cur.transitions:
            ok = defined[t.source] if t.source != cur.entry else set()
            guard = []
            for g in t.guard:
                if g in ok:
                    guard.append(g)
                else:
                    warnings.append(
                        f"dropped guard {g} on {t.id}: not defined at {t.source}")
                    changed = True
            ups = []
            for u in t.updates:
                if isinstance(u.rhs, str) and u.rhs not in ok:
                    warnings.append(
                        f"dropped {u} on {t.id}: {u.rhs} not defined at {t.source}")
                    changed = True
                else:
                    ups.append(u)
            new_ts.append(replace(t, guard=tuple(guard), updates=tuple(ups)))
        cur = replace(cur, transitions=tuple(new_ts))
        if not changed:
            break
    constrained = {u.lhs for t in cur.transitions for u in t.updates}
    dead = [v for v in cur.variables if v not in constrained]
    if dead:
        for v in dead:
            warnings.append(f"pruned variable {v}: no constraints remain")
        cur = replace(cur, variables=tuple(v for v in cur.variables if v not in dead))
    return cur, warnings


def ref_abstract_transition(e, t, norms):
    """The candidate loop, a test reference for `abstract_transition`: e
    itself, then the known norms in their order, are tried as targets whose
    difference from the post-state value is a constant; otherwise the
    integer constant is split off."""
    r = sym_exec_norm(e, t)
    if r is None:
        return None
    if r.is_const:
        return AbstractStep(rhs=LinExpr(r.const), offset=0)
    for cand in [e] + [n for n in norms if n != e]:
        diff = r.sub(cand)
        if diff.is_const:
            return AbstractStep(rhs=cand, offset=diff.const)
    return AbstractStep(rhs=r.drop_const(), offset=r.const)


def ref_infer_guard(e, t):
    """Syntactic entailment of e > 0 by t's guard, a test reference for the
    guards of an abstraction: true only when e is a positive constant or
    literally one of the guard's positivity facts."""
    if e.is_const:
        return e.const > 0
    for rel in t.guard:
        for fact in rel.facts():
            if fact == e:
                return True
    return False


def ref_dcp_transition(m, lineno, raw, src):
    """The per-update transition reader, a test reference for the `.dcp`
    reader's update memo: every update text is matched, classified against
    the constants declared so far and built anew."""
    updates = []
    for part in m.group("body").split(";"):
        part = part.strip()
        if not part:
            continue
        um = _UPDATE_RE.match(part)
        if um is None:
            col = raw.find(part) + 1
            src.diags.append(Diagnostic(lineno, max(col, 1),
                                        f"cannot parse update {part!r}"))
            continue
        rhs = um.group("rhs")
        if _INT_RE.fullmatch(rhs):
            rhs = IntConst(int(rhs))
        elif rhs in src.consts:
            rhs = SymConst(rhs)
        off = int(um.group("off") or 0)
        if um.group("sign") == "-":
            off = -off
        updates.append(DifferenceConstraint(um.group("lhs"), rhs, off))
    guard = m.group("guard")
    return Transition(
        id=m.group("id"), source=m.group("src"), target=m.group("tgt"),
        guard=tuple(sorted(g.strip() for g in guard.split(","))) if guard else (),
        updates=tuple(sorted(updates, key=lambda u: u.lhs)),
        line=lineno,
    )


def ref_parse_dcp(text):
    """`parse_dcp` with the per-update transition reader."""
    src = read_source(text, "dcp", _TRANS_RE, ref_dcp_transition)
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
