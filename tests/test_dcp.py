"""DCP parsing, validation, reset/increment extraction, back edges, SCCs."""

import random
from collections import Counter
from pathlib import Path

import pytest

from dcbound.dcp import (
    Dcp,
    DcpError,
    DifferenceConstraint,
    Transition,
    drop_variables,
    format_dcp,
    parse_dcp,
    strongly_connected_components,
    validate,
)
from dcbound.engine import Analysis, AnalysisMode
from dcbound.expr import SymConst
from dcbound.resetgraph import build_reset_graph

from conftest import by_id

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_dcp((DATA / name).read_text())


def resets(d, v):
    """R(v) of the reset analysis, as (transition id, source atom, offset)."""
    return {(e.trans.id, e.src, e.offset) for e in build_reset_graph(d).graph.into(v)}


def increments(d, v):
    """I(v) of the reset analysis, as (transition id, offset) in program order."""
    return [(t.id, c) for t, c in build_reset_graph(d).increments_of(v)]


def test_parse_example_a_shape():
    d = load("exampleA.dcp")
    assert set(d.locations) == {"lb", "l1", "le"}
    assert [t.id for t in d.transitions] == ["t0", "t1", "t2"]
    assert set(d.variables) == {"i", "j"}
    assert set(d.sym_consts) == {"n"}
    assert d.entry == "lb" and d.exit == "le"


def test_all_example_files_validate():
    for name in ["exampleA.dcp", "exampleB.dcp", "exampleC.dcp",
                 "example1.dcp", "example2.dcp", "example3_expected.dcp",
                 "cyclic.dcp"]:
        d = load(name)
        assert validate(d) == []


def test_resets_increments_partition_updates():
    # each update of the working program is exactly one of: a reset edge
    # (a foreign source), an increment (a self-update with a positive
    # offset), or a self-update with an offset of 0 or less
    for name in ["exampleA.dcp", "exampleB.dcp", "exampleC.dcp",
                 "example1.dcp", "example2.dcp", "example3_expected.dcp",
                 "cyclic.dcp"]:
        r = build_reset_graph(load(name))
        updates = [(t, u.lhs, u.rhs, u.offset)
                   for t in r.pruned.transitions for u in t.updates]
        edges = [(e.trans, e.dst, e.src, e.offset) for e in r.graph.edges]
        incs = [(t, v, v, c) for v, _ in r.increments for t, c in r.increments_of(v)]
        rest = [x for x in updates if x[1] == x[2] and x[3] <= 0]
        assert Counter(edges + incs + rest) == Counter(updates)
        assert all(c > 0 for *_, c in incs)


def test_determinism_violation_diagnosed():
    text = """
dcp
consts: n
vars: x, y, z
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; y' <= n; z' <= n; }
trans t1: l1 -> l1 guard(x) { x' <= y + 1; x' <= z; y' <= y; z' <= z; }
"""
    with pytest.raises(DcpError) as ei:
        parse_dcp(text)
    msgs = [d.message for d in ei.value.diagnostics]
    assert any("determinism" in m and "t1" in m and "'x'" in m for m in msgs)
    lines = [d.line for d in ei.value.diagnostics]
    assert 8 in lines  # positioned at the offending trans line


def test_well_definedness_violation_diagnosed():
    # v is guarded at l1 but t0 does not constrain it
    text = """
dcp
consts: n
vars: v
entry: lb
exit: le
trans t0: lb -> l1 { }
trans t1: l1 -> l1 guard(v) { v' <= v - 1; }
"""
    with pytest.raises(DcpError) as ei:
        parse_dcp(text)
    msgs = [d.message for d in ei.value.diagnostics]
    assert any("'v'" in m and "t0" in m for m in msgs)


def test_well_definedness_reported_at_the_read():
    # v passes unread through l1 and is read at l2: only the read is
    # reported, not the entry or l1, where v is merely live
    text = """
dcp
consts: n
vars: v
entry: lb
exit: le
trans t0: lb -> l1 { }
trans t1: l1 -> l2 { }
trans t2: l2 -> le guard(v) { v' <= v - 1; }
"""
    with pytest.raises(DcpError) as ei:
        parse_dcp(text)
    assert [d.message for d in ei.value.diagnostics] == [
        "variable 'v' is read at 'l2' but transition(s) t1 into 'l2' "
        "do not constrain it"]


def test_entry_read_rejected():
    text = """
dcp
consts: n
vars: v
entry: lb
exit: le
trans t0: lb -> l1 { v' <= v - 1; }
"""
    with pytest.raises(DcpError) as ei:
        parse_dcp(text)
    assert any("entry" in d.message for d in ei.value.diagnostics)


def test_syntax_error_positions():
    with pytest.raises(DcpError) as ei:
        parse_dcp("dcp\nconsts: n\nvars: x\nentry: a\nexit: b\ntrans t: a -> b { x' <= }\n")
    d = ei.value.diagnostics[0]
    assert d.line == 6 and d.col >= 1


def test_constant_declared_between_two_reads():
    # the same update text reads n as an unknown atom before `consts: n`
    # and as the constant after it
    text = """
dcp
vars: x
entry: lb
exit: le
trans t1: lb -> l1 { x' <= n; }
consts: n
trans t2: l1 -> le { x' <= n; }
"""
    with pytest.raises(DcpError) as ei:
        parse_dcp(text)
    assert [str(d) for d in ei.value.diagnostics] == [
        "6:1: transition t1: unknown atom 'n'"]
    # a hand-built program can name a constant that it does not declare
    t1 = Transition("t1", "lb", "le", (), (DifferenceConstraint("x", SymConst("m"), 0),))
    d = Dcp(locations=("lb", "le"), transitions=(t1,), entry="lb", exit="le",
            variables=("x",), sym_consts=("n",))
    assert [str(g) for g in validate(d)] == ["0:1: transition t1: unknown constant 'm'"]


def test_duplicate_transition_id():
    text = """
dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; }
trans t0: l1 -> le { x' <= x; }
"""
    with pytest.raises(DcpError) as ei:
        parse_dcp(text)
    assert any("duplicate" in d.message for d in ei.value.diagnostics)


def test_resets_example_c():
    d = load("exampleC.dcp")
    assert resets(d, "k") == {("t1", "r", 0)}
    # r has a reset from n and one from the integer 0
    rr = {(tid, str(a), c) for tid, a, c in resets(d, "r")}
    assert rr == {("t0", "n", 0), ("t3", "0", 0)}


def test_resets_example_2():
    d = load("example2.dcp")
    rs = {(tid, str(a), c) for tid, a, c in resets(d, "x")}
    assert rs == {("t0a", "m1", 0), ("t0b", "m2", 0)}


def test_self_update_is_not_a_reset():
    d = load("exampleA.dcp")
    assert increments(d, "j") == [("t1", 1)]
    # i only ever decreases or stays: no increments, and no resets besides t0
    assert increments(d, "i") == []
    assert [tid for tid, _, _ in resets(d, "i")] == ["t0"]


def test_increments_example_b_and_1():
    b = load("exampleB.dcp")
    assert increments(b, "k") == [("t1", 1)]
    e1 = load("example1.dcp")
    assert increments(e1, "r") == [("t1", 1)]
    # decrement-only variables have no increments
    assert increments(e1, "x") == []


def test_unknown_variable_errors():
    # the reset analysis knows no resets or increments of an unknown name;
    # the query that takes a variable refuses it
    d = load("exampleA.dcp")
    assert resets(d, "zz") == set() and increments(d, "zz") == []
    for mode in AnalysisMode:
        with pytest.raises(ValueError, match="unknown variable 'zz'"):
            Analysis(d, mode).vb("zz")


def test_back_edges():
    assert [t.id for t in load("exampleA.dcp").back_edges()] == ["t1", "t2"]
    assert [t.id for t in load("example1.dcp").back_edges()] == ["t3", "t5"]
    assert [t.id for t in load("exampleB.dcp").back_edges()] == ["t1", "t2", "t3"]
    assert [t.id for t in load("exampleC.dcp").back_edges()] == ["t2", "t3"]
    assert [t.id for t in load("example2.dcp").back_edges()] == ["t1", "t3"]
    # loop-free chain
    d = parse_dcp("""
dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; }
trans t1: l1 -> le { }
""")
    assert d.back_edges() == []


def test_format_round_trip():
    for name in ["exampleA.dcp", "exampleB.dcp", "example1.dcp", "example2.dcp"]:
        d = load(name)
        assert parse_dcp(format_dcp(d)) == d


def test_drop_variables():
    d = load("cyclic.dcp")
    pruned = drop_variables(d, {"x", "y"})
    t1 = by_id(pruned, "t1")
    assert [u.lhs for u in t1.updates] == ["i"]
    t2 = by_id(pruned, "t2")
    assert t2.updates == ()  # i' <= x mentioned x
    assert set(pruned.variables) == {"i", "x", "y"}  # still declared


def test_namespace_collision_diagnosed():
    with pytest.raises(DcpError) as ei:
        parse_dcp("""
dcp
consts: n
vars: l1
entry: lb
exit: le
trans t0: lb -> l1 { l1' <= n; }
""")
    assert any("both" in d.message for d in ei.value.diagnostics)


def test_negative_offsets_and_atoms():
    d = parse_dcp("""
dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= 0 - 3; }
trans t1: l1 -> l1 guard(x) { x' <= x - 2; }
""")
    u = by_id(d, "t0").updates[0]
    assert (str(u.rhs), u.offset) == ("0", -3)
    assert parse_dcp(format_dcp(d)) == d


def test_parenthesized_variable_names():
    d = parse_dcp("""
dcp
consts: l
vars: (l-i), (e-k)
entry: lb
exit: le
trans t0: lb -> l1 { (l-i)' <= l; (e-k)' <= 0; }
trans t1: l1 -> l1 guard((l-i),(e-k)) { (l-i)' <= (l-i) - 1; (e-k)' <= (e-k) - 1; }
""")
    assert set(d.variables) == {"(l-i)", "(e-k)"}
    assert by_id(d, "t1").guard == ("(e-k)", "(l-i)")
    assert parse_dcp(format_dcp(d)) == d


def test_strongly_connected_components_match_reachability():
    rng = random.Random(8642)
    for _ in range(300):
        n = rng.randint(1, 8)
        succ = [[rng.randrange(n) for _ in range(rng.randint(0, 3))]
                for _ in range(n)]
        reach = [{v} for v in range(n)]
        for _ in range(n):
            for v in range(n):
                for w in succ[v]:
                    reach[v] |= reach[w]
        comp = strongly_connected_components(succ)
        for a in range(n):
            for b in range(n):
                assert (comp[a] == comp[b]) == (b in reach[a] and a in reach[b])
