"""Simple-cycle enumeration and local bound assignment, the latter checked
against the simple-cycle rule."""

import random

import pytest

from dcbound.abstraction import abstract_program
from dcbound.dcp import Dcp, DifferenceConstraint, Transition, parse_dcp
from dcbound.expr import IntConst, SymConst
from dcbound.localbounds import ONE, local_bound_map
from dcbound.resetgraph import build_reset_graph

from conftest import DATA, load_dcp, load_prog, simple_cycles
from test_fuzz import _random_dcp_text


def ids(cycle):
    return tuple(t.id for t in cycle)


def cycle_sets(dcp):
    return {ids(c) for c in simple_cycles(dcp.locations, dcp.transitions)}


def test_cycles_example_a():
    assert cycle_sets(load_dcp("exampleA.dcp")) == {("t1",), ("t2",)}


def test_cycles_example_1():
    # derived by hand on the five-location graph: two big loops and one self-loop
    assert cycle_sets(load_dcp("example1.dcp")) == {
        ("t1", "t2a", "t4", "t5"),
        ("t1", "t2b", "t5"),
        ("t3",),
    }


def test_cycles_example_c():
    assert cycle_sets(load_dcp("exampleC.dcp")) == {("t1", "t3"), ("t2",)}


def test_local_bounds_example_a():
    d = load_dcp("exampleA.dcp")
    z = local_bound_map(d)
    assert z == {"t0": ONE, "t1": "i", "t2": "j"}
    assert [t for t, v in z.items() if v is None] == []


def test_local_bounds_example_b():
    d = load_dcp("exampleB.dcp")
    z = local_bound_map(d)
    assert z == {"t0": ONE, "t1": "i", "t2": "l", "t3": "j"}


def test_local_bounds_example_c():
    d = load_dcp("exampleC.dcp")
    z = local_bound_map(d)
    assert z == {"t0": ONE, "t1": "i", "t3": "i", "t2": "k"}


def test_local_bounds_example_1():
    d = load_dcp("example1.dcp")
    z = local_bound_map(d)
    assert z == {
        "t0": ONE, "t1": "x", "t2a": "x", "t2b": "x",
        "t4": "x", "t5": "x", "t3": "p",
    }


def test_local_bounds_example_2():
    d = load_dcp("example2.dcp")
    z = local_bound_map(d)
    assert z == {
        "t0": ONE, "t0a": ONE, "t0b": ONE, "t2": ONE,
        "t1": "y", "t3": "z",
    }


def test_no_local_bound_recorded():
    # a cycle whose only decremented variable is unguarded has no local bound
    d = parse_dcp("""
dcp
consts: n
vars: x
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; }
trans t1: l1 -> l1 { x' <= x - 1; }
""")
    z = local_bound_map(d)
    assert z["t1"] is None
    assert [t for t, v in z.items() if v is None] == ["t1"]


def test_lexicographic_tie_break():
    d = parse_dcp("""
dcp
consts: n
vars: a, b
entry: lb
exit: le
trans t0: lb -> l1 { a' <= n; b' <= n; }
trans t1: l1 -> l1 guard(a,b) { a' <= a - 1; b' <= b - 1; }
""")
    z = local_bound_map(d)
    assert z["t1"] == "a"


# -- differential check against the simple-cycle rule --------------------------

def reference_map(dcp):
    """v bounds t when every simple cycle through t guards and decreases v;
    transitions on no cycle get ONE; the smallest such name wins."""
    candidates = {}
    for cycle in simple_cycles(dcp.locations, dcp.transitions):
        guarded = {g for t in cycle for g in t.guard}
        decreased = {u.lhs for t in cycle for u in t.updates
                     if u.rhs == u.lhs and u.offset < 0}
        qual = guarded & decreased
        for t in cycle:
            candidates[t.id] = candidates.get(t.id, qual) & qual
    return {t.id: ONE if t.id not in candidates
            else min(candidates[t.id], default=None)
            for t in dcp.transitions}


def _data_programs():
    for path in sorted(DATA.iterdir()):
        if path.suffix == ".dcp":
            yield path.name, load_dcp(path.name)
        elif path.suffix == ".prog":
            yield path.name, abstract_program(load_prog(path.name)).dcp


@pytest.mark.parametrize("name,dcp", list(_data_programs()))
def test_matches_simple_cycle_rule_on_data(name, dcp):
    for d in (dcp, build_reset_graph(dcp).pruned):
        assert local_bound_map(d) == reference_map(d), name


def test_matches_simple_cycle_rule_on_fuzz_programs():
    rng = random.Random(24680)
    for _ in range(300):
        text = _random_dcp_text(rng)
        d = parse_dcp(text)
        assert local_bound_map(d) == reference_map(d), text


def _random_graph_dcp(rng: random.Random) -> Dcp:
    """Up to 7 locations and 13 transitions with random guards and updates;
    not necessarily well-defined, which local bounds do not need."""
    locs = [f"l{i}" for i in range(rng.randint(1, 7))]
    variables = ["a", "b", "c", "d"][: rng.randint(1, 4)]
    transitions = []
    for i in range(rng.randint(1, 13)):
        updates = []
        for v in variables:
            kind = rng.random()
            if kind < 0.35:
                updates.append(DifferenceConstraint(v, v, -rng.randint(1, 2)))
            elif kind < 0.5:
                updates.append(DifferenceConstraint(v, v, rng.randint(0, 1)))
            elif kind < 0.65:
                updates.append(DifferenceConstraint(
                    v, rng.choice([*variables, SymConst("n"), IntConst(0)]), 0))
        guard = tuple(v for v in variables if rng.random() < 0.4)
        transitions.append(Transition(
            id=f"t{i}", source=rng.choice(locs), target=rng.choice(locs),
            guard=guard, updates=tuple(updates)))
    return Dcp(locations=tuple(locs), transitions=tuple(transitions),
               entry=locs[0], exit=locs[-1], variables=tuple(variables),
               sym_consts=("n",))


def test_matches_simple_cycle_rule_on_random_graphs():
    rng = random.Random(13579)
    for _ in range(1500):
        d = _random_graph_dcp(rng)
        assert local_bound_map(d) == reference_map(d), d
