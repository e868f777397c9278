"""Exhaustive interpreter: tightness, dominance, and soundness checking."""

import gc
import pickle
import random
import tracemalloc
import weakref
import zlib

import pytest

import dcbound.dcp
from dcbound import expr, oracle
from dcbound.abstraction import abstract_program
from dcbound.dcp import Dcp, DcpError, DifferenceConstraint, Transition, \
    defined_at, parse_dcp, validate
from dcbound.engine import Analysis, AnalysisMode, BoundReport
from dcbound.expr import IntConst, SymConst
from dcbound.localbounds import ONE, local_bound_map
from dcbound.oracle import (
    DEFAULT_STEP_CAP,
    RunStats,
    Verdict,
    check_soundness,
    explore,
    worst,
)
from dcbound.program import parse_program

from conftest import DATA, load_dcp, load_prog
from test_cli import DO_WHILE_DCP, DO_WHILE_PROG, NO_TRANSITIONS_DCP
from test_fuzz import _random_dcp_text, _valuations


def test_example_a_exhaustive():
    stats = explore(load_dcp("exampleA.dcp"), {"n": 3})
    assert stats.exhausted
    assert stats.counts == {"t0": 1, "t1": 3, "t2": 3}
    assert stats.var_max["i"] == 3
    assert stats.var_max["j"] == 3


def test_example_b_quadratic_tight():
    stats = explore(load_dcp("exampleB.dcp"), {"n": 2})
    assert stats.exhausted
    assert stats.counts["t3"] == 4  # the n*n bound is reached at n=2
    assert stats.var_max["k"] == 2


def test_example_c_amortized():
    stats = explore(load_dcp("exampleC.dcp"), {"n": 2})
    assert stats.exhausted
    assert stats.counts["t2"] == 2  # not 4: refills after the first are empty


def test_example_1_amortized_tight():
    stats = explore(load_dcp("example1.dcp"), {"n": 3})
    assert stats.exhausted
    assert stats.counts["t3"] == 3  # equals the optimized bound n


def test_missing_constant_rejected():
    with pytest.raises(ValueError):
        explore(load_dcp("exampleA.dcp"), {})


def test_zero_constants():
    stats = explore(load_dcp("exampleA.dcp"), {"n": 0})
    assert stats.counts == {"t0": 1, "t1": 0, "t2": 0}


def test_step_cap_marks_partial():
    stats = explore(load_dcp("exampleB.dcp"), {"n": 3}, step_cap=5)
    assert not stats.exhausted


def test_state_cycle_marks_partial():
    d = parse_dcp("""
dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; }
trans t1: l1 -> l1 guard(x) { x' <= x; }
""")
    stats = explore(d, {"n": 1})
    assert not stats.exhausted


def test_walk_memory_per_state():
    """The walk keeps nothing per state beyond the state, its memo entry and
    its count tuple: no wrapper object per stacked state.

    The bound was set from tracemalloc's peak of this very walk, its growth
    per explored state between step caps 10 000 and 20 000, on CPython 3.10
    to 3.13. A stack of (state, None) pairs and (state, successors) frames
    grows by 272-279 bytes per state; a stack of the states and kernel
    outputs themselves by 237-246. 260 sits between the two. Each walk starts
    from a full collection, which empties the tuple free lists, and runs with
    the collector off, so that no collection empties them midway. A walk
    that takes its first few thousand tuples from full free lists traces up
    to 270 kB less, so without this the slope would move by up to 27 bytes
    with the tests run before this one.
    """
    dcp = load_dcp("cyclic.dcp")
    explore(dcp, {"n": 2}, 10)  # builds the program before tracing starts
    peaks = []
    enabled = gc.isenabled()
    for cap in (10_000, 20_000):
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            stats = explore(dcp, {"n": 2}, cap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert (stats.states, stats.exhausted) == (cap + 1, False)
    assert (peaks[1] - peaks[0]) / 10_000 <= 260, peaks


# -- soundness verdicts --------------------------------------------------------

def _violations(result):
    return [r for r in result.rows if r.ok is False]


def test_check_soundness_pass():
    d = load_dcp("exampleA.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    results = [check_soundness(d, report, {"n": k}) for k in range(5)]
    assert worst(r.verdict for r in results) is Verdict.PASS
    assert [_violations(r) for r in results] == [[]] * 5


def test_check_soundness_injected_fault():
    d = load_dcp("exampleA.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    report.tb["t2"] = expr.IntConst(0)  # deliberately corrupted
    result = check_soundness(d, report, {"n": 1})
    assert result.verdict is Verdict.FAIL
    bad = _violations(result)
    assert len(bad) == 1
    assert bad[0].name == "t2" and bad[0].observed == 1 and bad[0].bound == 0
    # n = 0 runs t2 never, so the corrupted bound holds there
    assert check_soundness(d, report, {"n": 0}).verdict is Verdict.PASS


def test_check_soundness_partial():
    d = load_dcp("exampleB.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    result = check_soundness(d, report, {"n": 3}, step_cap=5)
    assert result.verdict is Verdict.PASS_PARTIAL


def test_check_soundness_undefined_bounds_skipped():
    # x and y feed each other +1 forever, so exploration cannot finish;
    # all bounds are undefined and every row is skipped, never violated
    d = load_dcp("cyclic.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    result = check_soundness(d, report, {"n": 2}, step_cap=2000)
    assert result.verdict is Verdict.PASS_PARTIAL
    assert _violations(result) == []
    skipped = [r for r in result.rows if r.ok is None]
    assert {r.name for r in skipped} >= {"t1", "t2", "x", "y"}


# -- randomized runs never beat extreme updates --------------------------------
#
# Runs come from the dict-semantics references at the end of this module.

@pytest.mark.parametrize("name", ["exampleA.dcp", "exampleB.dcp",
                                  "exampleC.dcp", "example1.dcp",
                                  "example2.dcp"])
def test_random_runs_dominated(name):
    d = load_dcp(name)
    rng = random.Random(zlib.crc32(name.encode()))
    for val in _small_valuations(d, [0, 2, 3]):
        stats = explore(d, val)
        assert stats.exhausted
        for _ in range(500):
            counts = _ref_random_run(d, val, rng)
            for tid, c in counts.items():
                assert c <= stats.counts[tid], (name, val, tid)


def _small_valuations(d, values, cap=8):
    vals = [dict()]
    for c in d.sym_consts:
        vals = [dict(v, **{c: x}) for v in vals for x in values]
    if len(vals) > cap:
        vals = vals[:: max(1, len(vals) // cap)][:cap]
    return vals


# -- local bounds hold along explored runs --------------------------------------

def _decreases(values_seq, var):
    """How often max(var, 0) drops along a run's state sequence."""
    count = 0
    for before, after in zip(values_seq, values_seq[1:]):
        if var in before and var in after:
            if max(before[var], 0) > max(after[var], 0):
                count += 1
    return count


_LOCAL_BOUND_INPUTS = {
    **{name: lambda name=name: load_dcp(name)
       for name in ["exampleA.dcp", "exampleB.dcp", "exampleC.dcp",
                    "example1.dcp", "example2.dcp"]},
    "dowhile.dcp": lambda: parse_dcp(DO_WHILE_DCP),
    "dowhile.prog": lambda: abstract_program(parse_program(DO_WHILE_PROG)).dcp,
}


@pytest.mark.parametrize("name", list(_LOCAL_BOUND_INPUTS))
def test_local_bounds_validated_on_runs(name):
    # a transition runs at most as often as its local bound decreases, plus
    # once per way into its loop when it can run before the bound is tested
    d = _LOCAL_BOUND_INPUTS[name]()
    zeta = local_bound_map(d, frozenset())
    for val in _small_valuations(d, [0, 2]):
        for run in _ref_enumerate_runs(d, val, max_runs=2000):
            states = [{}] + [post for _, post in run]
            for tid, v in zeta.items():
                count = sum(1 for t, _ in run if t.id == tid)
                if v == ONE:
                    assert count <= 1
                elif v is not None:
                    assert count <= (_decreases(states, v)
                                     + zeta.entries.get(tid, 0)), (name, val, tid)


# -- differential: the compiled interpreter against the dict semantics ----------
#
# The references below interpret the program directly: a state is the
# location and the sorted values of its defined variables, successors are
# dicts, and counts are dicts keyed by transition id. `_ref_explore` checks
# `explore`; the two run generators drive the property tests above.

def _ref_atom_value(a, values, valuation):
    if isinstance(a, IntConst):
        return a.value
    if isinstance(a, SymConst):
        return valuation[a.name]
    return values[a]  # defined: the program is well-defined


def _ref_enabled(t, values, valuation):
    return all(_ref_atom_value(g, values, valuation) > 0 for g in t.guard)


def _ref_successor(t, values, valuation):
    return {u.lhs: _ref_atom_value(u.rhs, values, valuation) + u.offset
            for u in t.updates}


def _ref_explore(dcp, valuation, step_cap=DEFAULT_STEP_CAP):
    missing = [c for c in dcp.sym_consts if c not in valuation]
    if missing:
        raise ValueError(f"valuation is missing constants: {', '.join(missing)}")
    defined = defined_at(dcp)
    tids = [t.id for t in dcp.transitions]
    var_max = {v: None for v in dcp.variables}
    exhausted = True
    states_seen = 0
    memo = {}
    on_stack = set()
    start = (dcp.entry, ())
    stack = [(start, None)]
    while stack:
        state, pending = stack.pop()
        loc, items = state
        values = dict(items)
        if pending is None:
            if state in memo or state in on_stack:
                continue
            states_seen += 1
            if states_seen > step_cap:
                exhausted = False
                memo[state] = {tid: 0 for tid in tids}
                continue
            for v in defined[loc]:
                if v in values:
                    cur = var_max[v]
                    var_max[v] = values[v] if cur is None else max(cur, values[v])
            succs = []
            for t in sorted(dcp.outgoing(loc), key=lambda t: t.id):
                if not _ref_enabled(t, values, valuation):
                    continue
                nxt = _ref_successor(t, values, valuation)
                succs.append((t.id, (t.target, tuple(sorted(nxt.items())))))
            on_stack.add(state)
            stack.append((state, succs))
            for _, s in succs:
                if s not in memo and s not in on_stack:
                    stack.append((s, None))
                elif s in on_stack:
                    exhausted = False
        else:
            on_stack.discard(state)
            best = {tid: 0 for tid in tids}
            for tid, s in pending:
                sub = memo.get(s)
                if sub is None:
                    sub = {t: 0 for t in tids}
                for t in tids:
                    cand = sub[t] + (1 if t == tid else 0)
                    if cand > best[t]:
                        best[t] = cand
            memo[state] = best
    return RunStats(counts=memo[start], var_max=var_max,
                    exhausted=exhausted, states=states_seen)


def _ref_enumerate_runs(dcp, valuation, *, max_runs=10_000, max_len=10_000):
    emitted = 0

    def walk(loc, values, trail):
        nonlocal emitted
        if emitted >= max_runs or len(trail) >= max_len:
            return
        moved = False
        for t in sorted(dcp.outgoing(loc), key=lambda t: t.id):
            if not _ref_enabled(t, values, valuation):
                continue
            moved = True
            nxt = _ref_successor(t, values, valuation)
            trail.append((t, nxt))
            yield from walk(t.target, nxt, trail)
            trail.pop()
        if not moved:
            emitted += 1
            yield list(trail)

    yield from walk(dcp.entry, {}, [])


def _ref_random_run(dcp, valuation, rng, *, max_len=10_000, slack=4):
    counts = {t.id: 0 for t in dcp.transitions}
    loc, values = dcp.entry, {}
    for _ in range(max_len):
        enabled = [t for t in sorted(dcp.outgoing(loc), key=lambda t: t.id)
                   if _ref_enabled(t, values, valuation)]
        if not enabled:
            break
        t = rng.choice(enabled)
        nxt = {}
        for u in t.updates:
            cap = _ref_atom_value(u.rhs, values, valuation) + u.offset
            nxt[u.lhs] = rng.randint(cap - slack, cap)
        counts[t.id] += 1
        loc, values = t.target, nxt
    return counts


def _assert_same_stats(d, val, cap=DEFAULT_STEP_CAP):
    got = explore(d, val, cap)
    want = _ref_explore(d, val, cap)
    assert got == want, (val, cap)
    # key order is part of the result: rows and reports iterate these dicts
    assert list(got.counts) == list(want.counts)
    assert list(got.var_max) == list(want.var_max)
    return got


def _data_programs():
    dcps = {p.name: load_dcp(p.name) for p in sorted(DATA.glob("*.dcp"))}
    dcps["example3.prog"] = abstract_program(load_prog("example3.prog")).dcp
    return dcps


@pytest.mark.parametrize("name", sorted(_data_programs()))
def test_explore_matches_reference_on_data(name):
    d = _data_programs()[name]
    for val in _valuations(d.sym_consts, range(4)):
        for cap in (5, 50, DEFAULT_STEP_CAP):
            _assert_same_stats(d, val, cap)


def test_explore_matches_reference_on_random_programs():
    rng = random.Random(20261018)
    for _ in range(300):
        d = parse_dcp(_random_dcp_text(rng))
        val = {c: rng.randint(0, 4) for c in d.sym_consts}
        for cap in (7, 1500):
            _assert_same_stats(d, val, cap)


# -- differential on wider programs ---------------------------------------------
#
# Built without parse_dcp, so a program may read a variable that an incoming
# transition leaves unconstrained: explore must then raise validate's
# diagnostics. Most updates are identity copies (frames), so long runs of
# untouched variables occur; resets to constants sit on loops as well.

def _wide_update(rng, v, variables, consts):
    # about four changed variables per transition once there are many
    if rng.random() < max(0.6, 1 - 4 / len(variables)):
        return DifferenceConstraint(v, v, 0)  # frame
    kind = rng.random()
    if kind < 0.4:
        return DifferenceConstraint(v, v, rng.choice([-1, -1, 1]))
    if kind < 0.65:
        return DifferenceConstraint(v, rng.choice(variables), rng.randint(-2, 0))
    if kind < 0.9:
        return DifferenceConstraint(v, SymConst(rng.choice(consts)), rng.randint(-1, 1))
    return DifferenceConstraint(v, IntConst(rng.randint(0, 2)), 0)


def _wide_program(rng, variables=(2, 12)):
    """A ring of 1-5 locations (7 with the entry and the exit), each with a
    self-loop on its own counter; the ring edge back to the start counts
    down an outer counter and resets counters to constants. Some programs
    get extra random transitions, and some leave updates out."""
    n_locs = rng.randint(1, 5)
    locs = [f"q{i}" for i in rng.sample(range(10), n_locs)]
    variables = [f"v{i}" for i in rng.sample(range(100), rng.randint(*variables))]
    consts = ["n", "m", "k"][: rng.randint(2, 3)]
    omit = rng.choice([0.0, 0.0, 0.0, 0.0, 0.01, 0.1])
    outer, *inner = variables
    shape = []  # (source, target, guard variable, decremented variable, resets)
    for j, loc in enumerate(locs):
        c = rng.choice(inner)
        shape.append((loc, loc, c, c, False))
        if j + 1 < n_locs:
            shape.append((loc, locs[j + 1], None, None, rng.random() < 0.5))
    shape.append((locs[-1], locs[0], outer, outer, True))
    shape.append((rng.choice(locs), "le", None, None, False))
    for _ in range(rng.choice([0, 0, 1, 2])):
        shape.append((rng.choice(locs), rng.choice(locs), rng.choice(variables),
                      rng.choice(variables), rng.random() < 0.5))
    ids = [f"t{i}" for i in rng.sample(range(30), len(shape))]
    entry = []
    for v in variables:
        if rng.random() >= omit:
            rhs = rng.choice([SymConst(rng.choice(consts)), IntConst(rng.randint(0, 3))])
            entry.append(DifferenceConstraint(v, rhs, rng.randint(0, 1)))
    trans = [Transition("t_in", "lb", locs[0], (), tuple(entry))]
    for tid, (src, tgt, guard, dec, resets) in zip(ids, shape):
        updates = []
        for v in variables:
            if rng.random() < omit:
                continue
            if v == dec:
                updates.append(DifferenceConstraint(v, v, -1))
            elif resets and v in inner and rng.random() < 0.5:
                updates.append(DifferenceConstraint(v, SymConst(rng.choice(consts)), 0))
            else:
                updates.append(_wide_update(rng, v, variables, consts))
        rng.shuffle(updates)
        trans.append(Transition(tid, src, tgt, () if guard is None else (guard,),
                                tuple(updates)))
    return Dcp(locations=("lb", *locs, "le"), transitions=tuple(trans), entry="lb",
               exit="le", variables=tuple(variables), sym_consts=tuple(consts))


@pytest.mark.parametrize("variables, programs", [
    ((2, 12), 120),
    ((30, 50), 20),  # long runs of copies: explore copies them as state slices
])
def test_explore_matches_reference_on_wide_programs(variables, programs):
    rng = random.Random(20261019)
    checked = 0
    for _ in range(programs):
        d = _wide_program(rng, variables)
        val = {c: rng.randint(0, 4) for c in d.sym_consts}
        diags = validate(d)
        if diags:
            with pytest.raises(DcpError) as ei:
                explore(d, val)
            assert ei.value.diagnostics == diags
            continue
        checked += 1
        for cap in (7, 50, 1500, DEFAULT_STEP_CAP):
            got = _assert_same_stats(d, val, cap)
            if got.states > cap == 1500:
                break  # cut off; the default cap would explore 100000 states
    assert checked == {120: 94, 20: 16}[programs]  # both kinds are exercised


# -- shapes the generated kernels and folds must handle -------------------------
#
# The random generators give every location one to four outgoing transitions;
# these programs reach the edges: no transition at all (the element-wise
# maximum is zero wide), a dead end that is not the exit (a fold of no
# successors), six and more transitions out of one location, guarded and
# unguarded mixed, and a self-loop whose successor is its own state.

_EDGE_SHAPES = {
    "no-transitions": NO_TRANSITIONS_DCP,
    "dead-end": """dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; }
trans t1: l1 -> l1 guard(x) { x' <= x - 1; }
trans t2: l1 -> l2 { x' <= x; }
trans t3: l1 -> le { }
""",
    "seven-out": """dcp
consts: n, m
vars: x, y
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; y' <= m; }
trans t1: l1 -> l1 guard(x) { x' <= x - 1; y' <= y; }
trans t2: l1 -> l1 guard(y) { x' <= x; y' <= y - 1; }
trans t3: l1 -> l2 { x' <= x; y' <= y; }
trans t4: l1 -> l1 guard(x, y) { x' <= y - 1; y' <= x - 1; }
trans t5: l1 -> le { }
trans t6: l1 -> l2 guard(y) { x' <= 0; y' <= y - 1; }
trans t7: l1 -> le guard(x) { x' <= x; }
trans t8: l2 -> l1 guard(y) { x' <= x; y' <= y - 2; }
trans t9: l2 -> le { }
""",
    "self-cycle": """dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; }
trans t1: l1 -> l1 guard(x) { x' <= x; }
trans t2: l1 -> l1 guard(x) { x' <= x - 1; }
trans t3: l1 -> le { }
""",
}


@pytest.mark.parametrize("shape", list(_EDGE_SHAPES))
def test_explore_matches_reference_on_edge_shapes(shape):
    d = parse_dcp(_EDGE_SHAPES[shape])
    for val in _valuations(d.sym_consts, range(4)):
        for cap in (5, 50, DEFAULT_STEP_CAP):
            got = _assert_same_stats(d, val, cap)
            if shape == "self-cycle" and val["n"] > 0:
                assert not got.exhausted


# -- hand-built edge cases --------------------------------------------------------

def _hand_built(transitions, variables, consts=(), entry="lb"):
    locs = dict.fromkeys(loc for t in transitions for loc in (t.source, t.target))
    return Dcp(locations=tuple(locs), transitions=tuple(transitions), entry=entry,
               exit="le", variables=tuple(variables), sym_consts=tuple(consts))


def _dc(lhs, rhs, offset=0):
    return DifferenceConstraint(lhs, rhs, offset)


def test_names_that_are_not_identifiers():
    # no name reaches generated code: these would not compile if one did
    names = ("a b", "x); (", "def")
    d = _hand_built([
        Transition("t0) (", "l b", "l1", (), tuple(_dc(v, SymConst("n m"), 1) for v in names)),
        Transition("import", "l1", "l1", ("x); (",),
                   (_dc("a b", "a b", 2), _dc("x); (", "x); (", -1), _dc("def", "a b"))),
        Transition("'", "l1", "le", ("def",), (_dc("a b", "def"),)),
    ], variables=names, consts=("n m",), entry="l b")
    got = _assert_same_stats(d, {"n m": 2})
    assert got.counts == {"t0) (": 1, "import": 3, "'": 1}
    assert got.var_max == {"a b": 9, "x); (": 3, "def": 7}
    _assert_same_stats(d, {"n m": -10})


# -- the oracle's contract: programs that validate accepts -----------------------

# no bound is compared: check_soundness stops at the program (in explore)
_NO_BOUNDS = BoundReport(AnalysisMode.FREE, {}, {}, expr.IntConst(0))


_INVALID = {  # case -> (program, a diagnostic validate gives it)
    "entry-guard-read": (lambda: _hand_built([
        Transition("t0", "lb", "le", ("x",), (_dc("y", IntConst(1)),)),
    ], variables=("x", "y")), "variable 'x' may be read at the entry 'lb'"),
    "entry-update-read": (lambda: _hand_built([
        Transition("t0", "lb", "le", (), (_dc("y", "x"),)),
    ], variables=("x", "y")), "variable 'x' may be read at the entry 'lb'"),
    "unconstrained-guard-read": (lambda: _hand_built([
        Transition("t0", "lb", "l1", (), (_dc("x", IntConst(0)),)),
        Transition("t1", "l1", "le", ("x", "y"), (_dc("x", "y"),)),
    ], variables=("x", "y")), "variable 'y' is read at 'l1' but transition(s) t0"),
    "unconstrained-update-read": (lambda: _hand_built([
        Transition("t0", "lb", "l1", (), (_dc("c", IntConst(1)),)),
        Transition("t1", "l1", "le", ("c",), (_dc("a", "a"), _dc("b", "a"), _dc("c", "b"))),
    ], variables=("a", "b", "c")), "variable 'b' is read at 'l1' but transition(s) t0"),
    "odd-names-entry-read": (lambda: _hand_built([
        Transition("]", "l b", "le", (), (_dc("def", "x); ("),)),
    ], variables=("a b", "x); (", "def"), entry="l b"),
        "variable 'x); (' may be read at the entry 'l b'"),
    "undeclared-variable": (lambda: _hand_built([
        Transition("t0", "lb", "l1", (), (_dc("x", SymConst("n")), _dc("z", IntConst(2)))),
        Transition("t1", "l1", "le", ("x",), (_dc("x", "x", -1),)),
    ], variables=("x",), consts=("n",)), "transition t0: update of unknown variable 'z'"),
    "undeclared-constant": (lambda: _hand_built([
        Transition("t0", "lb", "le", (), (_dc("x", SymConst("m")),)),
    ], variables=("x",), consts=("n",)), "transition t0: unknown constant 'm'"),
    "constrained-twice": (lambda: _hand_built([
        Transition("t0", "lb", "l1", (), (_dc("x", IntConst(1)), _dc("x", IntConst(4)))),
        Transition("t1", "l1", "le", ("x",), (_dc("x", "x", -1),)),
    ], variables=("x",)), "transition t0: determinism violation, variable 'x' "
                          "constrained twice"),
    "duplicate-id": (lambda: _hand_built([
        Transition("t0", "lb", "l1", (), (_dc("x", IntConst(2)),)),
        Transition("t1", "l1", "l2", ("x",), (_dc("x", "x", -1),)),
        Transition("t1", "l2", "le", (), (_dc("x", "x"),)),
    ], variables=("x",)), "duplicate transition id 't1'"),
    "declared-twice": (lambda: _hand_built([
        Transition("t0", "lb", "le", (), (_dc("x", SymConst("n")),)),
    ], variables=("x", "x"), consts=("n",)), "variable 'x' declared twice"),
    "unknown-location": (lambda: Dcp(
        locations=("lb", "le"), transitions=(Transition("t0", "lb", "l1", (), ()),),
        entry="la", exit="le", variables=(), sym_consts=()),
        "transition t0: unknown location 'l1'"),
    # the words of a bound expression: a bound over such a constant would
    # print as `undef` or fail to read back
    **{f"reserved-{name}": (lambda name=name: _hand_built([
        Transition("t0", "lb", "le", (), (_dc("x", SymConst(name)),)),
    ], variables=("x",), consts=(name,)), f"constant {name!r} is reserved")
       for name in ("undef", "max", "min")},
}


@pytest.mark.parametrize("case", list(_INVALID))
def test_invalid_program_raises_validate_diagnostics(case):
    build, message = _INVALID[case]
    d = build()
    diags = validate(d)
    assert any(message in str(g) for g in diags), diags
    val = dict.fromkeys(d.sym_consts, 1)
    for interpret in (lambda: explore(d, val),
                      lambda: check_soundness(d, _NO_BOUNDS, val),
                      *(lambda mode=mode: Analysis(d, mode) for mode in AnalysisMode)):
        with pytest.raises(DcpError) as ei:
            interpret()
        assert ei.value.diagnostics == diags


def test_validity_is_decided_once_per_program(monkeypatch):
    calls = []
    diagnose = dcbound.dcp._diagnose
    monkeypatch.setattr(dcbound.dcp, "_diagnose", lambda d: calls.append(d) or diagnose(d))
    d = load_dcp("exampleB.dcp")  # parse_dcp validates
    report = Analysis(d, AnalysisMode.CTX).report()
    verdicts = [check_soundness(d, report, {"n": k}).verdict for k in range(3)]
    assert worst(verdicts) is Verdict.PASS
    assert calls == [d]


def test_the_build_lives_and_dies_with_its_program():
    """The oracle keeps its build on the program it explores: the program
    compares, hashes and prints as before, and a dropped program is freed."""
    text = (DATA / "exampleB.dcp").read_text()
    d = parse_dcp(text)
    report = Analysis(d, AnalysisMode.CTX).report()
    assert check_soundness(d, report, {"n": 2}).verdict is Verdict.PASS
    fresh = parse_dcp(text)
    assert (d == fresh, hash(d), repr(d)) == (True, hash(fresh), repr(fresh))
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_an_explored_program_pickles_without_its_build():
    """A caller may send an explored program to another process: the
    pickle holds the program's fields, and the copy is built anew."""
    d = load_dcp("exampleB.dcp")
    report = Analysis(d, AnalysisMode.CTX).report()
    before = check_soundness(d, report, {"n": 3})
    sent = pickle.loads(pickle.dumps(d))
    assert sent == d and "_oracle_build" not in vars(sent)
    assert check_soundness(sent, report, {"n": 3}) == before


def test_alternating_programs_are_built_once_each(monkeypatch):
    calls = []
    build = oracle._build
    monkeypatch.setattr(oracle, "_build", lambda d: calls.append(d) or build(d))
    programs = [load_dcp("exampleB.dcp"), load_dcp("example1.dcp")]
    reports = [Analysis(d, AnalysisMode.CTX).report() for d in programs]
    for _ in range(10):
        for d, report in zip(programs, reports):
            assert check_soundness(d, report, {"n": 2}).verdict is Verdict.PASS
    assert [id(d) for d in calls] == [id(d) for d in programs]
