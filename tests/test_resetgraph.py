"""Reset graph construction, path soundness, optimal path enumeration."""

import random

import pytest

from dcbound.dcp import Transition, parse_dcp
from dcbound.expr import IntConst, SymConst
from dcbound.resetgraph import (
    ResetEdge,
    ResetGraph,
    ResetPath,
    ResetPathOverflow,
    build_reset_graph,
    is_sound,
    optimal_reset_paths,
    to_dot,
)

from conftest import DATA, load_dcp


def edge_view(graph):
    return {(str(e.src), e.trans.id, e.offset, e.dst) for e in graph.edges}


def test_graph_example_1():
    r = build_reset_graph(load_dcp("example1.dcp"))
    assert edge_view(r.graph) == {
        ("0", "t0", 0, "r"),
        ("0", "t4", 0, "r"),
        ("r", "t2a", 0, "p"),
        ("n", "t0", 0, "x"),
    }
    assert r.removed_vars == frozenset()


def test_graph_example_b():
    r = build_reset_graph(load_dcp("exampleB.dcp"))
    assert edge_view(r.graph) == {
        ("n", "t0", 0, "i"),
        ("n", "t0", 0, "l"),
        ("0", "t0", 0, "k"),
        ("k", "t2", 0, "j"),
        ("0", "t0", 0, "j"),
    }
    assert r.removed_vars == frozenset()


def test_two_cycle_removed():
    d = parse_dcp("""
dcp
consts: n
vars: i, x, y
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; y' <= n; i' <= n; }
trans t1: l1 -> l1 guard(i) { i' <= i - 1; x' <= y; y' <= x; }
""")
    r = build_reset_graph(d)
    assert {"x", "y"} <= r.removed_vars
    # downstream dependents go too
    d2 = load_dcp("cyclic.dcp")
    r2 = build_reset_graph(d2)
    assert r2.removed_vars == frozenset({"x", "y", "i"})


def all_reset_paths(dcp, graph, var, max_len=6):
    """Independent enumeration of every reset path ending in var."""
    paths = [ResetPath((e,)) for e in graph.into(var)]
    frontier = list(paths)
    while frontier:
        p = frontier.pop()
        head = p.in_atom
        if isinstance(head, str) and len(p.edges) < max_len:
            for e in graph.into(head):
                q = ResetPath((e,) + p.edges)
                paths.append(q)
                frontier.append(q)
    return paths


def fmt(paths):
    return {str(p) for p in paths}


def test_sound_example_c():
    d = load_dcp("exampleC.dcp")
    g = build_reset_graph(d).graph
    paths = {str(p): p for p in all_reset_paths(d, g, "k")}
    assert is_sound(d, paths["0 -[t3]-> r -[t1]-> k"])
    assert is_sound(d, paths["n -[t0]-> r -[t1]-> k"])


def test_unsound_example_b():
    d = load_dcp("exampleB.dcp")
    g = build_reset_graph(d).graph
    paths = {str(p): p for p in all_reset_paths(d, g, "j")}
    assert not is_sound(d, paths["0 -[t0]-> k -[t2]-> j"])


def test_length_one_always_sound():
    for name in ["exampleA.dcp", "exampleB.dcp", "exampleC.dcp", "example1.dcp"]:
        d = load_dcp(name)
        g = build_reset_graph(d).graph
        for v in d.variables:
            for e in g.into(v):
                assert is_sound(d, ResetPath((e,)))


def test_suffix_closure_of_soundness():
    # every nonempty suffix of a sound path is sound
    for name in ["exampleA.dcp", "exampleB.dcp", "exampleC.dcp",
                 "example1.dcp", "example2.dcp"]:
        d = load_dcp(name)
        g = build_reset_graph(d).graph
        for v in d.variables:
            for p in all_reset_paths(d, g, v):
                if is_sound(d, p):
                    for k in range(1, len(p.edges)):
                        assert is_sound(d, ResetPath(p.edges[k:]))


def test_optimal_paths_example_1():
    d = load_dcp("example1.dcp")
    g = build_reset_graph(d).graph
    assert fmt(optimal_reset_paths(d, g, "p")) == {
        "0 -[t0]-> r -[t2a]-> p",
        "0 -[t4]-> r -[t2a]-> p",
    }


def test_optimal_paths_example_c_triples():
    d = load_dcp("exampleC.dcp")
    g = build_reset_graph(d).graph
    triples = {
        (frozenset(t.id for t in p.transitions), str(p.in_atom), p.offset)
        for p in optimal_reset_paths(d, g, "k")
    }
    assert triples == {
        (frozenset({"t3", "t1"}), "0", 0),
        (frozenset({"t0", "t1"}), "n", 0),
    }


def test_optimal_paths_example_b():
    d = load_dcp("exampleB.dcp")
    g = build_reset_graph(d).graph
    assert fmt(optimal_reset_paths(d, g, "j")) == {
        "0 -[t0]-> j",
        "k -[t2]-> j",
    }


def test_optimality_and_coverage():
    # maximality: any one-edge extension of an optimal path is absent or unsound;
    # coverage: every reset is the final edge of some optimal path
    for name in ["exampleA.dcp", "exampleB.dcp", "exampleC.dcp",
                 "example1.dcp", "example2.dcp"]:
        d = load_dcp(name)
        g = build_reset_graph(d).graph
        for v in d.variables:
            opt = optimal_reset_paths(d, g, v)
            for p in opt:
                assert is_sound(d, p)
                head = p.in_atom
                if isinstance(head, str):
                    for e in g.into(head):
                        assert not is_sound(d, ResetPath((e,) + p.edges))
            finals = {p.edges[-1] for p in opt}
            assert finals == set(g.into(v))


def test_path_counts():
    d = load_dcp("example1.dcp")
    g = build_reset_graph(d).graph
    assert g.path_count(IntConst(0), "p") == 2  # via t0 and via t4
    assert g.path_count("r", "p") == 1
    assert g.path_count("p", "p") == 1
    assert g.path_count(SymConst("n"), "p") == 0


def _brute_path_count(g, src, dst_var):
    """Enumerate every edge path from src to dst_var one by one."""
    total = 0
    stack = [src]
    while stack:
        node = stack.pop()
        if node == dst_var:
            total += 1
            continue
        stack.extend(e.dst for e in g.edges if e.src == node)
    return total


def _check_path_counts(g, variables, rng):
    atoms = list({e.src for e in g.edges} | set(variables)
                 | {SymConst("absent"), "absent"})
    queries = [(a, v) for a in atoms for v in list(variables) + ["absent"]]
    rng.shuffle(queries)  # interleave targets against the per-target memo
    for a, v in queries:
        assert g.path_count(a, v) == _brute_path_count(g, a, v), (a, v)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.dcp")))
def test_path_counts_match_enumeration_on_data(name):
    d = load_dcp(name)
    _check_path_counts(build_reset_graph(d).graph, d.variables, random.Random(name))


def test_path_counts_match_enumeration_on_random_dags():
    rng = random.Random(4242)
    for _ in range(300):
        variables = [f"v{i}" for i in range(rng.randint(1, 7))]
        edges = []
        for k in range(rng.randint(0, 14)):
            j = rng.randrange(len(variables))
            src = rng.choice(variables[:j]
                             + [SymConst("n"), IntConst(0), IntConst(1)])
            t = Transition(f"t{k % 5}", "l", "l", (), ())
            edges.append(ResetEdge(src, t, rng.randint(-1, 1), variables[j]))
        _check_path_counts(ResetGraph(tuple(edges)), variables, rng)


def test_overflow_cap():
    d = load_dcp("example1.dcp")
    g = build_reset_graph(d).graph
    with pytest.raises(ResetPathOverflow):
        optimal_reset_paths(d, g, "p", cap=1)


def test_dot_output():
    d = load_dcp("exampleA.dcp")
    g = build_reset_graph(d).graph
    dot = to_dot(g)
    assert 'digraph reset_graph {' in dot
    assert '"n" -> "i" [label="t0"];' in dot
    assert '"0" -> "j" [label="t0"];' in dot
    # nonzero offsets are rendered, zero offsets are not
    d2 = parse_dcp("""
dcp
consts: n
vars: a, b
entry: lb
exit: le
trans t0: lb -> l1 { a' <= n; b' <= n + 2; }
trans t1: l1 -> l1 guard(a) { a' <= a - 1; b' <= b; }
""")
    dot2 = to_dot(build_reset_graph(d2).graph)
    assert '"n" -> "b" [label="t0,+2"];' in dot2


def test_three_cycle_removed():
    d = parse_dcp("""
dcp
consts: n
vars: i, x, y, z, w
entry: lb
exit: le
trans t0: lb -> l1 { x' <= n; y' <= n; z' <= n; i' <= n; w' <= n; }
trans t1: l1 -> l1 guard(i) { i' <= i - 1; x' <= y; y' <= z; z' <= x; w' <= x + 1; }
""")
    r = build_reset_graph(d)
    # the rotation x<-y<-z<-x is removed along with its dependent w
    assert r.removed_vars == frozenset({"x", "y", "z", "w"})
    assert edge_view(r.graph) == {("n", "t0", 0, "i")}
