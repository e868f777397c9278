"""Acceptance gate: one test per criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every expected string below is an exact canonical form.
"""

import random

import pytest

from dcbound import expr
from dcbound.abstraction import abstract_program
from dcbound.cli import main as cli_main
from dcbound.dcp import DcpError, parse_dcp
from dcbound.engine import Analysis, AnalysisMode
from dcbound.localbounds import ONE, local_bound_map
from dcbound.oracle import (
    Verdict,
    check_soundness,
    explore,
)
from dcbound.resetgraph import ResetPath, build_reset_graph, is_sound, \
    optimal_reset_paths

from conftest import DATA, load_dcp, load_prog

FREE, CTX, OPT = AnalysisMode.FREE, AnalysisMode.CTX, AnalysisMode.OPT

_EXAMPLES = ["exampleA.dcp", "exampleB.dcp", "exampleC.dcp",
             "example1.dcp", "example2.dcp"]


def _ok(criterion: str) -> None:
    print(f"criterion {criterion}: PASS")


def bounds(name, mode):
    return Analysis(load_dcp(name), mode)


def sweep(consts, lo, hi):
    vals = [dict()]
    for c in consts:
        vals = [dict(v, **{c: x}) for v in vals for x in range(lo, hi + 1)]
    return vals


def test_criterion_1_example_a_all_modes():
    for mode in (FREE, CTX, OPT):
        a = bounds("exampleA.dcp", mode)
        assert str(a.tb("t1")) == "n"
        assert str(a.tb("t2")) == "n"
        assert str(a.complexity()) == "2*n"
    _ok("1 (two independent counters, all modes linear)")


def test_criterion_2_example_b():
    a = bounds("exampleB.dcp", FREE)
    assert str(a.tb("t1")) == "n"
    assert str(a.tb("t2")) == "n"
    assert str(a.tb("t3")) == "n*n"
    assert str(a.complexity()) == "2*n + n*n"
    assert str(a.vb("k")) == "n"
    c = bounds("exampleB.dcp", CTX)
    # frozen from a hand application of the context rule over the two
    # maximal sound chains into j: 0 (direct) and k (via the transfer)
    assert str(c.tb("t3")) == "n + n*n"
    result = check_soundness(load_dcp("exampleB.dcp"), c.report(),
                             sweep(["n"], 0, 3))
    assert result.verdict is Verdict.PASS
    _ok("2 (quadratic drain; context value n + n*n oracle-validated)")


def test_criterion_3_example_c():
    assert str(bounds("exampleC.dcp", FREE).tb("t2")) == "n*n"
    c = bounds("exampleC.dcp", CTX)
    assert str(c.tb("t2")) == "n"
    assert str(c.complexity()) == "2*n"
    _ok("3 (refill loop: context analysis drops the quadratic bound to n)")


def test_criterion_4_example_1():
    assert str(bounds("example1.dcp", CTX).tb("t3")) == "2*n"
    o = bounds("example1.dcp", OPT)
    assert str(o.tb("t3")) == "n"
    assert str(o.complexity()) == "2*n"
    _ok("4 (amortized inner loop: 2*n with context, n with flow splitting)")


def test_criterion_5_example_2():
    a = bounds("example2.dcp", FREE)
    assert str(a.tb("t3")) == "2*n + max(m1,m2)"
    assert str(a.vb("x")) == "2*n + max(m1,m2)"
    assert str(a.complexity()) == "3*n + max(m1,m2)"
    _ok("5 (non-convex invariant via the variable-bound recursion)")


def test_criterion_6_abstraction_pipeline():
    from test_abstraction import structurally_equal

    result = abstract_program(load_prog("example3.prog"))
    d = result.dcp
    rename = structurally_equal(d, load_dcp("example3_expected.dcp"))
    assert rename is not None

    name_of = {n.name(): v for v, n in result.norm_vars.items()}
    x, p = name_of["(l-i)"], name_of["(e-k)"]
    q, r = name_of["(e-b)"], name_of["(i-b)"]

    zeta = local_bound_map(d)
    expected = {"t0": ONE, "t4": p}
    expected.update({t: x for t in ["t1", "t2a", "t2b", "t3a", "t3b", "t5", "t6"]})
    assert zeta == expected

    reset = build_reset_graph(d)
    paths = {str(k) for k in optimal_reset_paths(reset.pruned, reset.graph, p)}
    assert paths == {
        f"0 -[t0]-> {q} -[t3a]-> {p}",
        f"0 -[t5]-> {q} -[t3a]-> {p}",
        f"0 -[t0]-> {r} -[t2a]-> {q} -[t3a]-> {p}",
        f"0 -[t5]-> {r} -[t2a]-> {q} -[t3a]-> {p}",
    }

    # the paper's n is the parameter l of the source program
    ctx = Analysis(d, CTX)
    assert str(ctx.tb("t4")) == "2*l"
    opt = Analysis(d, OPT)
    assert str(opt.tb("t4")) == "l"

    # depth limit 0 cuts the discovered chain, reported by name
    shallow = abstract_program(load_prog("example3.prog"), depth_limit=0)
    assert [w for w in shallow.warnings if w.startswith("discarded norm ")] == [
        "discarded norm (e-b) (depth limit 0)",
    ]
    _ok("6 (whole abstraction pipeline reproduces the expected program)")


def test_criterion_7_oracle_soundness_sweep():
    cases = [(name, load_dcp(name)) for name in _EXAMPLES]
    cases.append(("example3.prog", abstract_program(load_prog("example3.prog")).dcp))
    for name, d in cases:
        vals = sweep(d.sym_consts, 0, 4)
        for mode in (FREE, CTX, OPT):
            report = Analysis(d, mode).report()
            result = check_soundness(d, report, vals)
            assert result.verdict is Verdict.PASS, (
                name, mode, [r for r in result.rows if r.ok is False])
    _ok("7 (bounds dominate exhaustive exploration on the 0..4 sweep)")


def test_criterion_8_tightness_spot_checks():
    a = explore(load_dcp("exampleA.dcp"), {"n": 3})
    bound = expr.evaluate(bounds("exampleA.dcp", FREE).tb("t2"), {"n": 3})
    assert a.counts["t2"] == 3 == bound

    b = explore(load_dcp("exampleB.dcp"), {"n": 2})
    bound = expr.evaluate(bounds("exampleB.dcp", FREE).tb("t3"), {"n": 2})
    assert b.counts["t3"] == 4 == bound

    e1 = explore(load_dcp("example1.dcp"), {"n": 3})
    bound = expr.evaluate(bounds("example1.dcp", OPT).tb("t3"), {"n": 3})
    assert e1.counts["t3"] == 3 == bound
    _ok("8 (bounds are reached exactly at the spot-check sizes)")


def test_criterion_9a_normalization_properties():
    from test_expr import _CONSTS, _normalize, _random_expr

    rng = random.Random(20240817)
    for _ in range(1000):
        e = _random_expr(rng, rng.randint(1, 4))
        ne = _normalize(e)
        assert _normalize(ne) == ne
        v = {c: rng.randint(0, 16) for c in _CONSTS}
        assert expr.evaluate(ne, v) == expr.evaluate(e, v)
    _ok("9a (normalization idempotent and value-preserving, 1000 samples)")


def test_criterion_9b_reset_path_properties():
    from test_resetgraph import all_reset_paths

    for name in _EXAMPLES:
        d = load_dcp(name)
        g = build_reset_graph(d).graph
        for v in d.variables:
            opt = optimal_reset_paths(d, g, v)
            for p in all_reset_paths(d, g, v):
                if is_sound(d, p):
                    for k in range(1, len(p.edges)):
                        assert is_sound(d, ResetPath(p.edges[k:]))
            for p in opt:
                head = p.in_atom
                if isinstance(head, str):
                    for e in g.into(head):
                        assert not is_sound(d, ResetPath((e,) + p.edges))
            assert {p.edges[-1] for p in opt} == set(g.into(v))
    _ok("9b (suffix-sound, maximal, and covering reset paths)")


def test_criterion_9c_abstraction_invariance():
    from test_abstraction import _norm_expr_of_atom
    from dcbound.program import HAVOC

    prog = load_prog("example3.prog")
    result = abstract_program(prog)
    rng = random.Random(1111)
    names = list(prog.variables) + list(prog.params)
    concrete = {t.id: t for t in prog.transitions}
    violations = 0
    for t in result.dcp.transitions:
        ct = concrete[t.id]
        checked = 0
        while checked < 1000:
            s1 = {v: rng.randint(-8, 8) for v in names}
            if not ct.guard_holds(s1):
                continue
            checked += 1
            s2 = dict(s1)
            for v, rhs in ct.updates:
                s2[v] = rng.randint(-8, 8) if rhs is HAVOC else rhs.evaluate(s1)
            for u in t.updates:
                e1 = result.norm_vars[u.lhs]
                e2 = _norm_expr_of_atom(result, u.rhs, prog.params)
                if e1.evaluate(s2) > e2.evaluate(s1) + u.offset:
                    violations += 1
            for g in t.guard:
                if result.norm_vars[g].evaluate(s1) <= 0:
                    violations += 1
    assert violations == 0
    _ok("9c (every emitted constraint invariant over 1000 samples each)")


def test_criterion_9d_random_runs_dominated():
    from test_oracle import _ref_random_run

    rng = random.Random(777)
    for name in _EXAMPLES + ["example3"]:
        d = (abstract_program(load_prog("example3.prog")).dcp
             if name == "example3" else load_dcp(name))
        vals = sweep(d.sym_consts, 0, 4)
        if len(vals) > 8:
            vals = vals[:: len(vals) // 8][:8]
        for val in vals:
            stats = explore(d, val)
            assert stats.exhausted
            for _ in range(500):
                counts = _ref_random_run(d, val, rng)
                assert all(counts[t] <= stats.counts[t] for t in counts), (name, val)
    _ok("9d (random admissible runs never beat extreme-update counts)")


def test_criterion_10_negative_paths(tmp_path, capsys):
    # determinism violation, positioned
    with pytest.raises(DcpError) as ei:
        parse_dcp("dcp\nconsts: n\nvars: x\nentry: a\nexit: b\n"
                  "trans t0: a -> c { x' <= n; }\n"
                  "trans t1: c -> c guard(x) { x' <= x - 1; x' <= n; }\n")
    assert any("determinism" in d.message and d.line == 7
               for d in ei.value.diagnostics)

    # well-definedness violation, positioned
    with pytest.raises(DcpError) as ei:
        parse_dcp("dcp\nconsts: n\nvars: x\nentry: a\nexit: b\n"
                  "trans t0: a -> c { }\n"
                  "trans t1: c -> c guard(x) { x' <= x - 1; }\n")
    assert any("'x'" in d.message for d in ei.value.diagnostics)

    # recursion in the bound functions: undefined complexity, exit code 2
    code = cli_main(["analyze", str(DATA / "cyclic.dcp"), "--mode", "free"])
    out = capsys.readouterr().out
    assert code == 2 and out.endswith("complexity = undef\n")

    # injected fault caught by validation, exit code 3
    code = cli_main(["validate", str(DATA / "exampleA.dcp"),
                     "--assign", "n=1", "--override-bound", "t2=0"])
    out = capsys.readouterr().out
    assert code == 3 and out.strip().endswith("FAIL")
    assert "VIOLATION" in out
    _ok("10 (diagnostics, undefined propagation, fault detection)")
