"""Exhaustive interpreter: tightness, dominance, and soundness checking."""

import random

import pytest

from dcbound import expr
from dcbound.dcp import parse_dcp
from dcbound.engine import Analysis, AnalysisMode
from dcbound.localbounds import ONE, local_bound_map
from dcbound.oracle import (
    Verdict,
    check_soundness,
    enumerate_runs,
    explore,
    random_run,
)

from conftest import load_dcp


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

def test_check_soundness_pass():
    d = load_dcp("exampleA.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    result = check_soundness(d, report, [{"n": k} for k in range(5)])
    assert result.verdict is Verdict.PASS
    assert result.violations == []


def test_check_soundness_injected_fault():
    d = load_dcp("exampleA.dcp")
    report = Analysis(d, AnalysisMode.FREE).report()
    report.tb["t2"] = expr.IntConst(0)  # deliberately corrupted
    result = check_soundness(d, report, [{"n": 1}])
    assert result.verdict is Verdict.FAIL
    bad = result.violations
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
    assert result.violations == []
    skipped = [r for r in result.rows if r.ok is None]
    assert {r.name for r in skipped} >= {"t1", "t2", "x", "y"}


# -- randomized runs never beat extreme updates --------------------------------

@pytest.mark.parametrize("name", ["exampleA.dcp", "exampleB.dcp",
                                  "exampleC.dcp", "example1.dcp",
                                  "example2.dcp"])
def test_random_runs_dominated(name):
    d = load_dcp(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for val in _small_valuations(d, [0, 2, 3]):
        stats = explore(d, val)
        assert stats.exhausted
        for _ in range(500):
            counts = random_run(d, val, rng)
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
        for run in enumerate_runs(d, val, max_runs=2000):
            states = [{}] + [post for _, post in run]
            for tid, v in zeta.items():
                count = sum(1 for t, _ in run if t.id == tid)
                if v == ONE:
                    assert count <= 1
                elif v is not None:
                    assert count <= _decreases(states, v), (name, val, tid)
