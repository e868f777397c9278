"""Indexed lookups against linear-scan references.

Every indexed accessor of `Dcp` and `ResetGraph` must return exactly what a
scan over the program returns, order included, on the worked examples, on
seeded random programs and on their transforms.
"""

import random

import pytest

from dcbound.abstraction import abstract_program
from dcbound.dcp import (
    DifferenceConstraint,
    Dcp,
    Transition,
    drop_variables,
    enforce_well_definedness,
    parse_dcp,
    validate,
)
from dcbound.expr import IntConst, SymConst
from dcbound.resetgraph import build_reset_graph

from conftest import DATA, load_dcp, load_prog
from test_fuzz import _random_dcp_text

# ---------------------------------------------------------------------------
# linear-scan references
# ---------------------------------------------------------------------------


def ref_update_for(t, var):
    for u in t.updates:
        if u.lhs == var:
            return u
    return None


def ref_transition(d, tid):
    for t in d.transitions:
        if t.id == tid:
            return t
    raise KeyError(tid)


def ref_outgoing(d, loc):
    return tuple(t for t in d.transitions if t.source == loc)


def ref_incoming(d, loc):
    return tuple(t for t in d.transitions if t.target == loc)


def ref_resets(d, var):
    if var not in d.variables:
        raise ValueError(f"unknown variable {var!r}")
    out = []
    for t in d.transitions:
        u = ref_update_for(t, var)
        if u is not None and u.rhs != var:
            out.append((t, u.rhs, u.offset))
    return tuple(out)


def ref_increments(d, var):
    if var not in d.variables:
        raise ValueError(f"unknown variable {var!r}")
    out = []
    for t in d.transitions:
        u = ref_update_for(t, var)
        if u is not None and u.rhs == var and u.offset > 0:
            out.append((t, u.offset))
    return tuple(out)


def ref_into(g, var):
    return tuple(sorted((e for e in g.edges if e.dst == var),
                        key=lambda e: (str(e.src), e.trans.id, e.offset)))


def ref_out_of(g, atom):
    return sorted((e for e in g.edges if e.src == atom),
                  key=lambda e: (e.dst, e.trans.id, e.offset))


def ref_path_count(g, src, dst_var):
    memo = {}

    def walk(node):
        if node == dst_var:
            return 1
        if node not in memo:
            memo[node] = sum(walk(e.dst) for e in ref_out_of(g, node))
        return memo[node]

    return walk(src)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

MISSING = "__missing__"


def check_program(d: Dcp) -> None:
    names = ([t.id for t in d.transitions] + list(d.variables)
             + list(d.sym_consts) + [MISSING])
    for tid in names:
        try:
            expected = ref_transition(d, tid)
        except KeyError:
            with pytest.raises(KeyError):
                d.transition(tid)
        else:
            assert d.transition(tid) is expected
    for loc in list(d.locations) + [MISSING]:
        assert d.outgoing(loc) == ref_outgoing(d, loc)
        assert d.incoming(loc) == ref_incoming(d, loc)
    for v in d.variables:
        assert d.resets(v) == ref_resets(d, v)
        assert d.increments(v) == ref_increments(d, v)
    for accessor in (d.resets, d.increments):
        with pytest.raises(ValueError):
            accessor(MISSING)


def check_graph(d: Dcp, rng: random.Random) -> None:
    g = build_reset_graph(d).graph
    atoms = list({e.src for e in g.edges} | set(d.variables)
                 | {MISSING, SymConst(MISSING), IntConst(0)})
    for v in list(d.variables) + [MISSING]:
        assert g.into(v) == ref_into(g, v)
    queries = [(a, v) for a in atoms for v in d.variables]
    rng.shuffle(queries)  # interleave targets against the per-target memo
    for a, v in queries + queries[::-1]:
        assert g.path_count(a, v) == ref_path_count(g, a, v)


def transforms(d: Dcp, rng: random.Random) -> list[Dcp]:
    dropped = [v for v in d.variables if rng.random() < 0.5]
    return [d, drop_variables(d, dropped), enforce_well_definedness(d)[0]]


def load_example(name: str) -> Dcp:
    if name.endswith(".prog"):
        return abstract_program(load_prog(name)).dcp
    return load_dcp(name)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()))
def test_examples_match_scans(name):
    rng = random.Random(3)
    for p in transforms(load_example(name), rng):
        check_program(p)
        check_graph(p, rng)


def test_random_programs_match_scans():
    rng = random.Random(20151508)
    for _ in range(300):
        d = parse_dcp(_random_dcp_text(rng))
        for p in transforms(d, rng):
            check_program(p)
            check_graph(p, rng)


def test_malformed_duplicates_first_match_wins():
    first = DifferenceConstraint("x", IntConst(1), 0)
    second = DifferenceConstraint("x", "x", 2)
    t0 = Transition("t0", "a", "b", (), (first, second))
    t0_again = Transition("t0", "b", "a", (), (second,))
    d = Dcp(locations=("a", "b"), transitions=(t0, t0_again), entry="a",
            exit="c", variables=("x",), sym_consts=())
    assert d.transition("t0") is t0
    assert d.resets("x") == ((t0, IntConst(1), 0),)
    assert d.increments("x") == ((t0_again, 2),)
    check_program(d)
    messages = [diag.message for diag in validate(d)]  # after the index exists
    assert any("duplicate transition id" in m for m in messages)
    assert any("determinism violation" in m for m in messages)


def test_returned_lists_are_copies():
    # the lookups hand out the stored tuples, so no caller can change them
    d = load_dcp("example1.dcp")
    g = build_reset_graph(d).graph
    calls = [lambda: d.outgoing(d.transitions[1].source),
             lambda: d.incoming(d.transitions[1].target),
             lambda: d.resets("r"), lambda: d.increments("r"),
             lambda: g.into("p")]
    for call in calls:
        got = call()
        assert got and isinstance(got, tuple)
        assert call() is got
    assert d.outgoing("no-such-location") == ()
    assert g.into("no-such-variable") == ()
