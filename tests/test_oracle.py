"""Exhaustive interpreter: tightness, dominance, and soundness checking."""

import random
import zlib

import pytest

from dcbound import expr
from dcbound.abstraction import abstract_program
from dcbound.dcp import Dcp, DifferenceConstraint, Transition, \
    defined_at, parse_dcp
from dcbound.engine import Analysis, AnalysisMode
from dcbound.expr import IntConst, SymConst
from dcbound.localbounds import ONE, local_bound_map
from dcbound.oracle import (
    DEFAULT_STEP_CAP,
    RunStats,
    Verdict,
    _UndefinedRead,
    check_soundness,
    explore,
)

from conftest import DATA, load_dcp, load_prog
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


# -- soundness verdicts --------------------------------------------------------

def _violations(result):
    return [r for r in result.rows if r.ok is False]


def test_check_soundness_pass():
    d = load_dcp("exampleA.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    result = check_soundness(d, report, [{"n": k} for k in range(5)])
    assert result.verdict is Verdict.PASS
    assert _violations(result) == []


def test_check_soundness_injected_fault():
    d = load_dcp("exampleA.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    report.tb["t2"] = expr.IntConst(0)  # deliberately corrupted
    result = check_soundness(d, report, [{"n": 1}])
    assert result.verdict is Verdict.FAIL
    bad = _violations(result)
    assert len(bad) == 1
    assert bad[0].name == "t2" and bad[0].observed == 1 and bad[0].bound == 0
    assert bad[0].valuation == (("n", 1),)


def test_check_soundness_partial():
    d = load_dcp("exampleB.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    result = check_soundness(d, report, [{"n": 3}], step_cap=5)
    assert result.verdict is Verdict.PASS_PARTIAL


def test_check_soundness_undefined_bounds_skipped():
    # x and y feed each other +1 forever, so exploration cannot finish;
    # all bounds are undefined and every row is skipped, never violated
    d = load_dcp("cyclic.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    result = check_soundness(d, report, [{"n": 2}], step_cap=2000)
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


@pytest.mark.parametrize("name", ["exampleA.dcp", "exampleB.dcp",
                                  "exampleC.dcp", "example1.dcp",
                                  "example2.dcp"])
def test_local_bounds_validated_on_runs(name):
    d = load_dcp(name)
    zeta = local_bound_map(d)
    for val in _small_valuations(d, [0, 2]):
        for run in _ref_enumerate_runs(d, val, max_runs=2000):
            states = [{}] + [post for _, post in run]
            for tid, v in zeta.items():
                count = sum(1 for t, _ in run if t.id == tid)
                if v == ONE:
                    assert count <= 1
                elif v is not None:
                    assert count <= _decreases(states, v), (name, val, tid)


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
    try:
        return values[a]
    except KeyError:
        raise _UndefinedRead(
            f"read of undefined variable {a!r}; the program is not "
            f"well-defined") from None


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


def _assert_same_stats(d, val, cap):
    got = explore(d, val, cap)
    want = _ref_explore(d, val, cap)
    assert got == want, (val, cap)
    # key order is part of the result: rows and reports iterate these dicts
    assert list(got.counts) == list(want.counts)
    assert list(got.var_max) == list(want.var_max)


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


def test_undefined_read_in_hand_built_program():
    # not well-defined, built without parse_dcp: x is read before any
    # transition constrains it, once in a guard and once in an update
    for guard, rhs in [(("x",), IntConst(1)), ((), "x")]:
        t0 = Transition("t0", "lb", "l1", guard,
                        (DifferenceConstraint("y", rhs, 0),))
        d = Dcp(locations=("l1", "lb"), transitions=(t0,), entry="lb",
                exit="l1", variables=("x", "y"), sym_consts=())
        for interpret in (lambda: explore(d, {}),
                          lambda: _ref_explore(d, {})):
            with pytest.raises(_UndefinedRead, match="read of undefined variable 'x'"):
                interpret()
