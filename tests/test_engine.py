"""Golden bound values for the worked examples, in every analysis mode."""

import pytest

from dcbound import expr
from dcbound.dcp import parse_dcp
from dcbound.engine import Analysis, AnalysisMode

from conftest import load_dcp

FREE, CTX, OPT = AnalysisMode.FREE, AnalysisMode.CTX, AnalysisMode.OPT


def analysis(name, mode):
    return Analysis(load_dcp(name), mode)


def tb(a, tid):
    return str(a.tb(tid))


def vb(a, v):
    return str(a.vb(v))


# -- Example A ---------------------------------------------------------------

@pytest.mark.parametrize("mode", [FREE, CTX, OPT])
def test_example_a_all_modes_agree(mode):
    a = analysis("exampleA.dcp", mode)
    assert tb(a, "t0") == "1"
    assert tb(a, "t1") == "n"
    assert tb(a, "t2") == "n"
    assert str(a.complexity()) == "2*n"


# -- Example B ---------------------------------------------------------------

def test_example_b_free():
    a = analysis("exampleB.dcp", FREE)
    assert tb(a, "t1") == "n"
    assert tb(a, "t2") == "n"
    assert tb(a, "t3") == "n*n"
    assert vb(a, "k") == "n"
    assert str(a.complexity()) == "2*n + n*n"


def test_example_b_ctx():
    # reset chains into j: the direct zero reset, and k's value entering via
    # the transfer loop, which itself can have gained n increments
    a = analysis("exampleB.dcp", CTX)
    assert tb(a, "t3") == "n + n*n"


# -- Example C ---------------------------------------------------------------

def test_example_c_free():
    a = analysis("exampleC.dcp", FREE)
    assert tb(a, "t1") == "n"
    assert tb(a, "t2") == "n*n"
    assert tb(a, "t3") == "n"
    assert vb(a, "r") == "n"


def test_example_c_ctx():
    a = analysis("exampleC.dcp", CTX)
    assert tb(a, "t2") == "n"
    assert tb(a, "t3") == "n"
    assert str(a.complexity()) == "2*n"


def test_example_c_opt():
    a = analysis("exampleC.dcp", OPT)
    assert tb(a, "t2") == "n"
    assert str(a.complexity()) == "2*n"


# -- Example 1 ---------------------------------------------------------------

def test_example_1_incr():
    a = analysis("example1.dcp", FREE)
    assert str(a.incr("r")) == "n"
    assert str(a.incr("x")) == "0"


def test_example_1_free():
    a = analysis("example1.dcp", FREE)
    assert tb(a, "t3") == "n*n"
    assert tb(a, "t5") == "n"


def test_example_1_ctx():
    a = analysis("example1.dcp", CTX)
    assert tb(a, "t3") == "2*n"


def test_example_1_opt():
    a = analysis("example1.dcp", OPT)
    assert tb(a, "t3") == "n"
    assert tb(a, "t5") == "n"
    assert str(a.complexity()) == "2*n"


# -- Example 2 ---------------------------------------------------------------

def test_example_2_free():
    a = analysis("example2.dcp", FREE)
    assert str(a.incr("x")) == "2*n"
    assert vb(a, "x") == "2*n + max(m1,m2)"
    assert tb(a, "t3") == "2*n + max(m1,m2)"
    assert str(a.complexity()) == "3*n + max(m1,m2)"


def test_example_2_non_variable_atoms():
    a = analysis("example2.dcp", FREE)
    from dcbound.expr import IntConst, SymConst
    assert str(a.vb(SymConst("n"))) == "n"
    assert str(a.vb(IntConst(3))) == "3"
    assert str(a.incr(SymConst("n"))) == "0"


def test_example_2_ctx_splits_the_max():
    # with contexts the two initializations are separate chains, so their
    # bounds add up instead of joining in a max; sound but less precise
    a = analysis("example2.dcp", CTX)
    assert tb(a, "t3") == "4*n + m1 + m2"


def test_example_2_opt():
    a = analysis("example2.dcp", OPT)
    assert tb(a, "t3") == "2*n + m1 + m2"


# -- undefined propagation ---------------------------------------------------

def test_cyclic_vb_undefined():
    a = analysis("cyclic.dcp", FREE)
    assert a.vb("x") == expr.UNDEFINED
    assert a.vb("y") == expr.UNDEFINED
    assert a.tb("t1") == expr.UNDEFINED
    assert a.complexity() == expr.UNDEFINED


def test_undefined_is_per_query():
    # the circular pair poisons only what depends on it: the entry transition
    # and the unrelated counter keep their results
    a = analysis("cyclic.dcp", FREE)
    assert str(a.tb("t0")) == "1"
    assert a.vb("x") == expr.UNDEFINED
    assert str(a.incr("i")) == "0"


def test_cyclic_ctx_removed_vars_undefined():
    a = analysis("cyclic.dcp", CTX)
    assert a.vb("x") == expr.UNDEFINED
    assert a.complexity() == expr.UNDEFINED
    assert any("removed" in w for w in a.warnings)


def test_unguarded_decrement_has_no_bound():
    d = parse_dcp("""
dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; }
trans t1: l1 -> l1 { x' <= x - 1; }
""")
    a = Analysis(d, FREE)
    assert a.tb("t1") == expr.UNDEFINED
    assert a.complexity() == expr.UNDEFINED


def test_loop_free_complexity_zero():
    d = parse_dcp("""
dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; }
trans t1: l1 -> le { }
""")
    for mode in (FREE, CTX, OPT):
        a = Analysis(d, mode)
        assert str(a.complexity()) == "0"
        assert str(a.tb("t1")) == "1"


# -- memoization transparency -------------------------------------------------

@pytest.mark.parametrize("name", ["exampleA.dcp", "exampleB.dcp",
                                  "exampleC.dcp", "example1.dcp",
                                  "example2.dcp"])
@pytest.mark.parametrize("mode", [FREE, CTX, OPT])
def test_memoization_transparent(name, mode):
    fast = Analysis(load_dcp(name), mode)
    slow = Analysis(load_dcp(name), mode, memoize=False)
    for t in fast.working.transitions:
        assert fast.tb(t.id) == slow.tb(t.id)
    for v in fast.working.variables:
        assert fast.vb(v) == slow.vb(v)
    assert fast.complexity() == slow.complexity()


# -- report rendering ----------------------------------------------------------

def test_report_render():
    a = analysis("exampleA.dcp", FREE)
    out = a.report().render(include_vb=True)
    assert out.splitlines() == [
        "TB(t0) = 1",
        "TB(t1) = n",
        "TB(t2) = n",
        "VB(i) = n",
        "VB(j) = n",
        "complexity = 2*n",
    ]


def test_report_undef_prints_undef():
    a = analysis("cyclic.dcp", FREE)
    out = a.report().render(include_vb=True)
    assert "VB(x) = undef" in out
    assert "complexity = undef" in out


def test_reset_path_cap_degrades_to_undef():
    a = Analysis(load_dcp("example1.dcp"), CTX, max_reset_paths=1)
    assert a.tb("t3") == expr.UNDEFINED
    assert any("reset paths" in w for w in a.warnings)
    # transitions whose local bound has few chains are unaffected
    assert str(a.tb("t1")) == "n"
