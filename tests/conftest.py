import argparse
import importlib.util
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import dcbound
import dcbound.abstraction
import dcbound.cli
import dcbound.dcp
import dcbound.engine
import dcbound.expr
import dcbound.oracle
import dcbound.program
import dcbound.resetgraph
from dcbound.abstraction import DEFAULT_DEPTH_LIMIT, AbstractStep, sym_exec_norm
from dcbound.dcp import (
    _INT_RE,
    _TRANS_RE,
    _UPDATE_RE,
    Dcp,
    DcpError,
    DifferenceConstraint,
    Diagnostic,
    Transition,
    build_program,
    defined_at,
    parse_dcp,
    read_source,
    validate,
)
from dcbound.expr import IntConst, SymConst
from dcbound.oracle import DEFAULT_STEP_CAP
from dcbound.program import LinExpr, parse_program
from dcbound.resetgraph import DEFAULT_RESET_PATH_CAP

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"


def load_dcp(name: str):
    return parse_dcp((DATA / name).read_text())


def load_prog(name: str):
    return parse_program((DATA / name).read_text())


def read_decimal(text: str) -> int:
    """int() of a decimal numeral of any length, read 1000 digits at a time
    (str() and int() convert at most 4300 digits by default)."""
    digits = text.removeprefix("-")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def by_id(program, tid: str):
    """The transition of `program` with id `tid`, by a scan."""
    return next(t for t in program.transitions if t.id == tid)


# The concrete semantics of a .prog program, which the package abstracts
# but never runs.
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "=": operator.eq, "==": operator.eq}


def lin_value(e: LinExpr, env) -> int:
    """The value of a linear expression under `env`."""
    return e.const + sum(c * env[n] for n, c in e.coeffs)


def guard_holds(t, env) -> bool:
    """Whether every relation in the guard of concrete transition `t` holds
    under `env`."""
    return all(_COMPARE[r.op](lin_value(r.lhs, env), lin_value(r.rhs, env))
               for r in t.guard)


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
                missing = [t.id for t in d.transitions if t.target == loc
                           and all(u.lhs != v for u in t.updates)]
                messages.append(
                    f"variable {v!r} is live at {loc!r} but transition(s) "
                    f"{', '.join(sorted(missing))} into {loc!r} do not constrain it")
    return messages


def ref_drop_variables(d, removed):
    """The program without every constraint that mentions a removed
    variable (either side) and every guard on one; the variables stay
    declared. A test reference: the engine leaves the variables the reset
    analysis removes out of its analysis of the input instead."""
    ts = tuple(Transition(t.id, t.source, t.target,
                          tuple(g for g in t.guard if g not in removed),
                          tuple(u for u in t.updates if u.lhs not in removed
                                and not (isinstance(u.rhs, str) and u.rhs in removed)),
                          t.line)
               for t in d.transitions)
    return Dcp(d.locations, ts, d.entry, d.exit, d.variables, d.sym_consts)


def ref_enforce_well_definedness(d):
    """The round loop, a test reference for `enforce_well_definedness`:
    each round reruns `defined_at`, drops every guard and constraint that
    reads a name not defined at the transition's source and rebuilds every
    transition, until a round drops nothing; then constraint-less variables
    are pruned, without a warning."""
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
            new_ts.append(Transition(t.id, t.source, t.target, tuple(guard),
                                     tuple(ups), t.line))
        cur = Dcp(cur.locations, tuple(new_ts), cur.entry, cur.exit, cur.variables,
                  cur.sym_consts)
        if not changed:
            break
    constrained = {u.lhs for t in cur.transitions for u in t.updates}
    cur = Dcp(cur.locations, cur.transitions, cur.entry, cur.exit,
              tuple(v for v in cur.variables if v in constrained), cur.sym_consts)
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
    at = len(raw) - len(raw.lstrip()) + 1 + m.start("body")  # the column of the body
    for piece in m.group("body").split(";"):
        part = piece.strip()
        col, at = at + len(piece) - len(piece.lstrip()), at + len(piece) + 1
        if not part:
            continue
        um = _UPDATE_RE.match(part)
        if um is None:
            src.diags.append(Diagnostic(lineno, col, f"cannot parse update {part!r}"))
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
    dcp = build_program(read_source(text, "dcp", _TRANS_RE, ref_dcp_transition), Dcp)
    diags = validate(dcp)
    if diags:
        raise DcpError(diags)
    return dcp


# ---------------------------------------------------------------------------
# value-semantics references
# ---------------------------------------------------------------------------
#
# A @dataclass twin of each record class, with the fields and flags the class
# had as a dataclass, and its name: the reference for the record's
# constructor, ==, hash, repr and immutability (`test_records.py`).

@dataclass(frozen=True)
class _DifferenceConstraint:
    __qualname__ = "DifferenceConstraint"
    lhs: object
    rhs: object
    offset: object


@dataclass(frozen=True)
class _Transition:
    __qualname__ = "Transition"
    id: object
    source: object
    target: object
    guard: object
    updates: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class _Diagnostic:
    __qualname__ = "Diagnostic"
    line: object
    col: object
    message: object


@dataclass(frozen=True)
class _Dcp:
    __qualname__ = "Dcp"
    locations: object
    transitions: object
    entry: object
    exit: object
    variables: object
    sym_consts: object


@dataclass
class _Source:
    __qualname__ = "Source"
    consts: dict = field(default_factory=dict)
    variables: dict = field(default_factory=dict)
    entry: object = None
    exit: object = None
    locations: set = field(default_factory=set)
    transitions: list = field(default_factory=list)
    diags: list = field(default_factory=list)
    update_memo: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _IntConst:
    __qualname__ = "IntConst"
    value: object


@dataclass(frozen=True)
class _SymConst:
    __qualname__ = "SymConst"
    name: object


@dataclass(frozen=True)
class _Undefined:
    __qualname__ = "Undefined"


@dataclass(frozen=True, eq=False, repr=False)
class _Compound:
    __qualname__ = "Compound"
    op: object
    args: object


@dataclass(frozen=True)
class _LinExpr:
    __qualname__ = "LinExpr"
    const: int = 0
    coeffs: tuple = ()


@dataclass(frozen=True)
class _Relation:
    __qualname__ = "Relation"
    op: object
    lhs: object
    rhs: object


@dataclass(frozen=True)
class _ConcreteProgram:
    __qualname__ = "ConcreteProgram"
    locations: object
    transitions: object
    entry: object
    exit: object
    variables: object
    sym_consts: object


@dataclass(frozen=True)
class _ResetEdge:
    __qualname__ = "ResetEdge"
    src: object
    trans: object
    offset: object
    dst: object


@dataclass(frozen=True)
class _ResetPath:
    __qualname__ = "ResetPath"
    edges: object


@dataclass(frozen=True)
class _ResetGraph:
    __qualname__ = "ResetGraph"
    edges: object


@dataclass(frozen=True)
class _ResetAnalysis:
    __qualname__ = "ResetAnalysis"
    graph: object
    removed_vars: object
    increments: object


@dataclass
class _RunStats:
    __qualname__ = "RunStats"
    counts: object
    var_max: object
    exhausted: object
    states: object


@dataclass(frozen=True)
class _SoundnessRow:
    __qualname__ = "SoundnessRow"
    kind: object
    name: object
    observed: object
    bound: object


@dataclass
class _SoundnessResult:
    __qualname__ = "SoundnessResult"
    verdict: object
    rows: object


@dataclass
class _BoundReport:
    __qualname__ = "BoundReport"
    mode: object
    tb: object
    vb: object
    complexity: object
    warnings: list = field(default_factory=list)


@dataclass(frozen=True)
class _AbstractStep:
    __qualname__ = "AbstractStep"
    rhs: object
    offset: object


@dataclass
class _AbstractionResult:
    __qualname__ = "AbstractionResult"
    dcp: object
    norm_vars: object
    derived_consts: object
    warnings: object


TWINS = {
    dcbound.dcp.DifferenceConstraint: _DifferenceConstraint,
    dcbound.dcp.Transition: _Transition,
    dcbound.dcp.Diagnostic: _Diagnostic,
    dcbound.dcp.Dcp: _Dcp,
    dcbound.dcp.Source: _Source,
    dcbound.expr.IntConst: _IntConst,
    dcbound.expr.SymConst: _SymConst,
    dcbound.expr.Undefined: _Undefined,
    dcbound.expr.Compound: _Compound,
    dcbound.program.LinExpr: _LinExpr,
    dcbound.program.Relation: _Relation,
    dcbound.program.ConcreteProgram: _ConcreteProgram,
    dcbound.resetgraph.ResetEdge: _ResetEdge,
    dcbound.resetgraph.ResetPath: _ResetPath,
    dcbound.resetgraph.ResetGraph: _ResetGraph,
    dcbound.resetgraph.ResetAnalysis: _ResetAnalysis,
    dcbound.oracle.RunStats: _RunStats,
    dcbound.oracle.SoundnessRow: _SoundnessRow,
    dcbound.oracle.SoundnessResult: _SoundnessResult,
    dcbound.engine.BoundReport: _BoundReport,
    dcbound.abstraction.AbstractStep: _AbstractStep,
    dcbound.abstraction.AbstractionResult: _AbstractionResult,
}


# ---------------------------------------------------------------------------
# command-line reference
# ---------------------------------------------------------------------------

class RefUsageError(Exception):
    """A usage error of the reference parser; its message is argparse's."""


class _RefParser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2; dcbound uses 1
        self.print_usage(sys.stderr)
        raise RefUsageError(message)


def _ref_count(text: str) -> int:
    """argparse type of the cap and limit flags: an integer of 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def ref_build_parser() -> _RefParser:
    """The argparse parser `dcbound.cli` used before it read its command line
    from one option table: the reference of `test_cli_args.py`."""
    p = _RefParser(prog="dcbound", description=dcbound.cli.__doc__,
                   formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version",
                   version=f"dcbound {dcbound.__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, analysis=True):
        sp.add_argument("file", help="input file whose first line is dcp or prog")
        sp.add_argument("--abstraction-depth", type=_ref_count,
                        default=DEFAULT_DEPTH_LIMIT, metavar="N",
                        help="max chained norm discoveries before a chain "
                             f"is discarded (default {DEFAULT_DEPTH_LIMIT})")
        sp.add_argument("--keep-names", action="store_true",
                        help="name abstract variables after their norms, "
                             "e.g. (l-i)")
        if analysis:
            sp.add_argument("--max-reset-paths", type=_ref_count, metavar="N",
                            default=DEFAULT_RESET_PATH_CAP,
                            help="optimal reset path cap per variable "
                                 f"(default {DEFAULT_RESET_PATH_CAP})")

    a = sub.add_parser("analyze", help="compute transition bounds and complexity")
    common(a)
    a.add_argument("--mode", default="ctx", choices=["free", "ctx", "opt"],
                   help="bound algorithm variant (default ctx)")
    a.add_argument("--vb", action="store_true", help="also print variable bounds")
    a.add_argument("-v", "--verbose", action="store_true",
                   help="print the abstracted program to stderr")

    b = sub.add_parser("abstract", help="abstract a .prog file into a .dcp file")
    common(b, analysis=False)
    b.add_argument("-o", "--output", metavar="OUT",
                   help="output path (stdout when omitted)")

    c = sub.add_parser("validate",
                       help="check bounds against exhaustive concrete exploration")
    common(c)
    c.add_argument("--mode", default="ctx", choices=["free", "ctx", "opt"])
    one_of = c.add_mutually_exclusive_group()
    one_of.add_argument("--assign", action="append", default=[], metavar="N=V[,M=V]",
                        help="one valuation of the symbolic constants (repeatable)")
    one_of.add_argument("--sweep", metavar="LO..HI",
                        help="cartesian sweep over all constants (default 0..3 "
                             "when no --assign is given)")
    c.add_argument("--max-steps", type=_ref_count, default=DEFAULT_STEP_CAP,
                   metavar="S",
                   help=f"state cap per valuation (default {DEFAULT_STEP_CAP})")
    c.add_argument("--override-bound", action="append", default=[],
                   metavar="TRANS=EXPR",
                   help="replace a computed transition bound before checking "
                        "(fault-injection/debugging aid)")

    d = sub.add_parser("resets", help="print optimal reset paths or emit DOT")
    common(d)
    d.add_argument("--dot", metavar="FILE", help="write the reset graph as DOT")
    d.add_argument("--var", action="append", default=[], metavar="V",
                   help="restrict to one variable (repeatable)")
    return p
