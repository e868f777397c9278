"""Concrete-program parsing and abstraction into difference constraints."""

import itertools
import random
import time

import pytest

from dcbound import abstraction
from dcbound.abstraction import (
    AbstractionResult,
    AbstractStep,
    abstract_program,
    abstract_transition,
    guess_norms,
    sym_exec_norm,
)
from dcbound.dcp import Dcp, DcpError, format_dcp, validate
from dcbound.engine import Analysis, AnalysisMode
from dcbound.expr import IntConst, SymConst
from dcbound.program import HAVOC, LinExpr, parse_program

from conftest import (
    DATA,
    by_id,
    families,
    guard_holds,
    lin_value,
    load_dcp,
    load_prog,
    ref_abstract_transition,
    ref_infer_guard,
    simple_cycles,
)
from test_cli import _loop_text
from test_fuzz import _random_prog_text


# -- parsing -------------------------------------------------------------------

def test_parse_example3():
    p = load_prog("example3.prog")
    assert set(p.locations) == {"l0", "l1", "l2", "l3", "l4", "l5", "le"}
    assert [t.id for t in p.transitions] == [
        "t0", "t1", "t2a", "t2b", "t3a", "t3b", "t4", "t5", "t6"]
    assert p.sym_consts == ("l",)
    assert set(p.variables) == {"b", "e", "i", "k"}


def test_parse_havoc():
    p = load_prog("example3.prog")
    t0 = next(t for t in p.transitions if t.id == "t0")
    assert dict(t0.updates)["k"] is HAVOC


def test_double_update_rejected():
    with pytest.raises(DcpError) as ei:
        parse_program("""
prog
params: n
vars: x
entry: l0
exit: le
trans t0: l0 -> l1 { x := 1; x := 2; }
""")
    assert any("assigned twice" in d.message for d in ei.value.diagnostics)


def test_param_assignment_rejected():
    with pytest.raises(DcpError) as ei:
        parse_program("""
prog
params: n
vars: x
entry: l0
exit: le
trans t0: l0 -> l1 { n := 3; }
""")
    assert any("parameter" in d.message for d in ei.value.diagnostics)


def _chain_text(k: int) -> str:
    """A straight line of k transitions over k variables, each stepping its
    own variable, then the exit edge."""
    lines = ["prog", "vars: " + ", ".join(f"v{j}" for j in range(k)),
             "entry: l0", "exit: le"]
    lines += [f"trans t{j}: l{j} -> l{j + 1} {{ v{j} := v{j} + 1; }}"
              for j in range(k)]
    lines.append(f"trans done: l{k} -> le {{ }}")
    return "\n".join(lines) + "\n"


def test_parse_long_chain_in_linear_time():
    # each transition line looks its names up in the declarations, which
    # are not copied or scanned per line
    text = _chain_text(8000)
    start = time.perf_counter()
    p = parse_program(text)
    assert time.perf_counter() - start < 2
    assert len(p.transitions) == 8001
    assert len(p.variables) == 8000


# -- norm guessing ---------------------------------------------------------------

def test_guess_norms_example3():
    p = load_prog("example3.prog")
    norms = [n.name() for n in guess_norms(p)]
    # the inner loop's exit condition k >= e contributes nothing: its
    # counters only move on cycles that do not contain the exit edge
    assert norms == ["(l-i)", "(e-k)"]



def test_guess_norms_diamonds():
    # 2^k simple cycles make one loop, which the forest finds without
    # listing them
    for k in (13, 14, 40):
        p = parse_program(_loop_text("prog", k, diamonds=True))
        assert [n.name() for n in guess_norms(p)] == ["(n-i)"], k


TWO_ENTRY_LOOP = """
prog
params: n
vars: x
entry: l0
exit: le
trans t0: l0 -> l1 { x := 0; }
trans e2: l0 -> l2 { x := 0; }
trans t1: l1 -> l3 when x < n { }
trans t2: l3 -> l2 { x := x + 1; }
trans t3: l2 -> l1 { }
trans t4: l2 -> l3 { }
"""


def test_guess_norms_irreducible_loop():
    # the loop {l1, l2, l3} is entered at l1 and at l2; with l1 as its only
    # header, l2 <-> l3 would be a nested loop that owns the increment t2,
    # and the guard of t1 would name no counter of its own loop
    p = parse_program(TWO_ENTRY_LOOP)
    assert [n.name() for n in guess_norms(p)] == ["(n-x)"]
    tb = Analysis(abstract_program(p).dcp, AnalysisMode.CTX).report().tb
    assert str(tb["t1"]) == "2*n"


COUNTDOWN_GE = """
prog
params: n
vars: i
entry: l0
exit: le
trans t0: l0 -> l1 { i := n; }
trans t1: l1 -> l1 when i >= 0 { i := i - 1; }
"""


def test_guess_norms_shifted_for_weak_inequality():
    p = parse_program(COUNTDOWN_GE)
    assert [n.name() for n in guess_norms(p)] == ["(i+1)"]


def test_guess_norms_skip_constant_and_parameter_facts():
    # all three conditions name the counter i, but i + n > i only says
    # n > 0 and i + 1 > i says nothing: neither fact can serve as a norm
    p = parse_program("""
prog
params: n
vars: i
entry: l0
exit: le
trans t0: l0 -> l1 { i := 0; }
trans t1: l1 -> l1 when i < n, i + n > i, i + 1 > i { i := i + 1; }
""")
    assert [n.name() for n in guess_norms(p)] == ["(n-i)"]


def test_guess_norms_straight_line():
    p = parse_program("""
prog
params: n
vars: x
entry: l0
exit: le
trans t0: l0 -> l1 when n > 0 { x := n; }
trans t1: l1 -> le { x := x + 1; }
""")
    assert guess_norms(p) == []


def simple_cycle_norms(prog):
    """The rule the loop-nesting forest replaced: a guard relation on t
    contributes when some simple cycle through t moves one of its variables
    by a nonzero constant."""
    relevant = {t.id: set() for t in prog.transitions}
    for cycle in simple_cycles(prog.locations, prog.transitions):
        counters = set().union(*(abstraction._counter_updates(t) for t in cycle))
        for t in cycle:
            relevant[t.id] |= counters
    norms = {}
    for t in prog.transitions:
        for rel in t.guard:
            if (rel.lhs.names | rel.rhs.names) & relevant[t.id]:
                for fact in rel.facts():
                    if not fact.is_const and not fact.names <= set(prog.sym_consts):
                        norms[fact] = None
    return list(norms)


def _random_nested_prog_text(rng: random.Random, locations: int = 5,
                             transitions: int = 8, entries: int = 1) -> str:
    """2 up to `locations` locations, 3 variables and 2 up to `transitions`
    transitions, with forward edges more likely than backward ones, so loops
    often nest; `entries` transitions leave the entry location."""
    k = rng.randint(2, locations)
    lines = ["prog", "params: n", "vars: x, y, z", "entry: l0", "exit: le",
             "trans t0: l0 -> l1 { x := 0; y := n; z := 0; }"]
    for j in range(1, entries):
        lines.append(f"trans e{j}: l0 -> l{rng.randint(1, k)} "
                     "{ x := 0; y := n; z := 0; }")
    guards = ["x < n", "y > 0", "z < y", "x >= n", "z >= y", "y > x", ""]
    for i in range(rng.randint(2, transitions)):
        src = rng.randint(1, k)
        tgt = rng.choice([src, min(src + 1, k), rng.randint(1, k)])
        target = "le" if rng.random() < 0.1 else f"l{tgt}"
        guard = rng.choice(guards)
        when = f" when {guard}" if guard else ""
        updates = []
        for v in "xyz":
            kind = rng.random()
            if kind < 0.1:
                updates.append(f"{v} := ?;")
            elif kind < 0.45:
                updates.append(f"{v} := {v} {rng.choice('+-')} 1;")
            elif kind < 0.6:
                updates.append(f"{v} := {rng.choice([w for w in 'xyzn' if w != v])};")
            elif kind < 0.7:
                updates.append(f"{v} := 0;")
        lines.append(f"trans t{i + 1}: l{src} -> {target}{when} "
                     f"{{ {' '.join(updates)} }}")
    return "\n".join(lines) + "\n"


def test_forest_norms_include_those_of_the_cycle_rule():
    # several entries give irreducible loops, where a simple cycle can leave
    # a nested loop through a back edge into a header it did not enter by
    rng = random.Random(7)
    for _ in range(600):
        text = _random_nested_prog_text(rng, locations=7, transitions=14,
                                        entries=3)
        p = parse_program(text)
        assert set(simple_cycle_norms(p)) <= set(guess_norms(p)), text


def _all_bounds(prog):
    dcp = abstract_program(prog).dcp
    return [Analysis(dcp, mode).report().tb for mode in AnalysisMode]


# t3 lies in the inner loop l2 <-> l4, whose only counter is x; y moves on
# the outer back edge t2, so the guard y > 0 counts through the loop headed
# at l1 that contains the inner one, and y bounds t2
OUTER_COUNTER_IN_INNER_LOOP = """
prog
params: n
vars: x, y
entry: l0
exit: le
trans t0: l0 -> l1 { x := 0; y := n; }
trans t1: l1 -> l2 { x := n; }
trans t3: l2 -> l4 when y > 0 { }
trans t4: l4 -> l2 when x > 0 { x := x - 1; }
trans t2: l4 -> l1 { y := y - 1; }
trans done: l1 -> le { }
"""

# l1 <-> l3 is nested in the loop headed at l2 and is entered at both l1
# and l3, so t3 is one of its back edges; the simple cycle t2, t3, t5
# enters it at l3 and leaves through t3, and y still counts for t2
TWO_HEADER_INNER_LOOP = """
prog
params: n
vars: y, z
entry: l0
exit: le
trans t0: l0 -> l2 { y := 0; z := n; }
trans t1: l2 -> l1 { }
trans t2: l2 -> l3 when z >= y { }
trans t3: l3 -> l1 { y := y + 1; }
trans t4: l1 -> l3 { }
trans t5: l1 -> l2 { }
trans done: l2 -> le { }
"""


@pytest.mark.parametrize("text, norms, bound", [
    (OUTER_COUNTER_IN_INNER_LOOP, ["(y)", "(x)"], "n"),
    (TWO_HEADER_INNER_LOOP, ["(z-y+1)"], "1 + n"),
], ids=["outer-counter-in-inner-loop", "two-header-inner-loop"])
def test_guard_counts_for_enclosing_loops(monkeypatch, text, norms, bound):
    p = parse_program(text)
    assert [n.name() for n in guess_norms(p)] == norms
    bounds = _all_bounds(p)
    assert all(str(tb["t2"]) == bound for tb in bounds)
    monkeypatch.setattr(abstraction, "guess_norms", simple_cycle_norms)
    assert _all_bounds(p) == bounds


def test_forest_keeps_every_bound_of_the_cycle_rule(monkeypatch):
    # the forest guesses every norm of the cycle rule, possibly more and in
    # another order, and on these programs every transition bound is the same
    rng = random.Random(5)
    texts = [_random_prog_text(rng) for _ in range(200)]
    texts += [_random_nested_prog_text(rng) for _ in range(200)]
    progs = [parse_program(text) for text in texts]
    for text, p in zip(texts, progs):
        assert set(simple_cycle_norms(p)) <= set(guess_norms(p)), text
    forest = [_all_bounds(p) for p in progs]
    monkeypatch.setattr(abstraction, "guess_norms", simple_cycle_norms)
    for text, p, bounds in zip(texts, progs, forest):
        assert _all_bounds(p) == bounds, text


# -- symbolic execution ------------------------------------------------------------

def lin(const=0, **coeffs):
    return LinExpr.from_mapping(const, coeffs)


def trans(p, tid):
    return next(t for t in p.transitions if t.id == tid)


def test_sym_exec_norm_values():
    p = load_prog("example3.prog")
    l_i = lin(l=1, i=-1)
    e_k = lin(e=1, k=-1)
    assert sym_exec_norm(l_i, trans(p, "t1")) == lin(-1, l=1, i=-1)
    assert sym_exec_norm(e_k, trans(p, "t3a")) == lin(e=1, b=-1)
    assert sym_exec_norm(e_k, trans(p, "t0")) is None  # k havoced
    assert sym_exec_norm(l_i, trans(p, "t6")) == l_i  # identity


def creates_norm(step, norms) -> bool:
    """abstract_program adds a step's rhs to its norms exactly when the rhs
    is not constant and not known yet."""
    return not step.rhs.is_const and step.rhs not in norms


def by_coeffs(norms):
    """The index `abstract_program` keeps: the first norm per coefficient
    tuple."""
    index = {}
    for n in norms:
        index.setdefault(n.coeffs, n)
    return index


def test_abstract_transition_cases():
    p = load_prog("example3.prog")
    e_k = lin(e=1, k=-1)
    norms = [lin(l=1, i=-1), e_k]
    # reset to a brand-new norm
    step = abstract_transition(e_k, trans(p, "t3a"), by_coeffs(norms))
    assert step.rhs == lin(e=1, b=-1) and step.offset == 0
    assert creates_norm(step, norms)
    # self-increment keeps the norm set unchanged
    q = parse_program("""
prog
params: n
vars: x
entry: l0
exit: le
trans t0: l0 -> l1 { x := n; }
trans t1: l1 -> l1 when x > 0 { x := x + 5; }
""")
    step = abstract_transition(lin(x=1), trans(q, "t1"), by_coeffs([lin(x=1)]))
    assert step.rhs == lin(x=1) and step.offset == 5
    assert not creates_norm(step, [lin(x=1)])
    # a constant result becomes the integer atom
    i_b = lin(i=1, b=-1)
    step = abstract_transition(i_b, trans(p, "t5"), by_coeffs(norms + [i_b]))
    assert step.rhs == lin(0) and step.rhs.is_const and step.offset == 0
    assert not creates_norm(step, norms + [i_b])
    # guessed norms can share coefficients, like (n-i) and (n-i+1) here: e
    # itself comes first, then the first such norm, and the offset is the
    # difference of the constants
    r = parse_program("""
prog
params: n
vars: i, j
entry: l0
exit: le
trans t0: l0 -> l1 { i := 0; j := 0; }
trans t1: l1 -> l1 when i < n { i := i + 1; j := i + 2; }
trans t2: l1 -> le when i >= n { }
""")
    n_i, n_i1, n_j = lin(n=1, i=-1), lin(1, n=1, i=-1), lin(n=1, j=-1)
    step = abstract_transition(n_i1, trans(r, "t1"), by_coeffs([n_i, n_i1]))
    assert step.rhs == n_i1 and step.offset == -1
    step = abstract_transition(n_j, trans(r, "t1"), by_coeffs([n_i1, n_i, n_j]))
    assert step.rhs == n_i1 and step.offset == -3
    step = abstract_transition(n_j, trans(r, "t1"), by_coeffs([n_i, n_i1, n_j]))
    assert step.rhs == n_i and step.offset == -2


# -- whole-program abstraction -------------------------------------------------------

def _match_transitions(got: Dcp, want: Dcp, rename: dict[str, str]) -> bool:
    def xlate(t):
        guard = tuple(sorted(rename.get(g, g) for g in t.guard))
        ups = []
        for u in t.updates:
            rhs = u.rhs
            if isinstance(rhs, str):
                rhs = rename.get(rhs, rhs)
            ups.append((rename.get(u.lhs, u.lhs), rhs, u.offset))
        return (t.id, t.source, t.target, guard, tuple(sorted(ups)))

    a = {xlate(t) for t in got.transitions}
    b = {(t.id, t.source, t.target, tuple(sorted(t.guard)),
          tuple(sorted((u.lhs, u.rhs, u.offset) for u in t.updates)))
         for t in want.transitions}
    return a == b


def structurally_equal(got: Dcp, want: Dcp) -> dict[str, str] | None:
    """A variable bijection making the programs identical, if one exists."""
    if (got.locations, got.entry, got.exit) != (want.locations, want.entry, want.exit):
        return None
    if got.sym_consts != want.sym_consts:
        return None
    if len(got.variables) != len(want.variables):
        return None
    if sorted(t.id for t in got.transitions) != sorted(t.id for t in want.transitions):
        return None
    for perm in itertools.permutations(want.variables):
        rename = dict(zip(got.variables, perm))
        if _match_transitions(got, want, rename):
            return rename
    return None


def test_abstract_example3_matches_expected():
    result = abstract_program(load_prog("example3.prog"))
    expected = load_dcp("example3_expected.dcp")
    rename = structurally_equal(result.dcp, expected)
    assert rename is not None
    # the discovered norms are exactly the four from the walkthrough
    norms = {n.name() for n in result.norm_vars.values()}
    assert norms == {"(l-i)", "(e-k)", "(e-b)", "(i-b)"}
    assert discard_warnings(result) == []
    assert validate(result.dcp) == []


def test_abstract_example3_keep_names():
    result = abstract_program(load_prog("example3.prog"), keep_names=True)
    assert set(result.dcp.variables) == {"(l-i)", "(e-k)", "(e-b)", "(i-b)"}
    # keep-names output still parses and validates
    from dcbound.dcp import format_dcp, parse_dcp
    again = parse_dcp(format_dcp(result.dcp))
    assert again == result.dcp


def test_abstract_countdown():
    result = abstract_program(parse_program("""
prog
params: n
vars: i
entry: l0
exit: le
trans t0: l0 -> l1 { i := n; }
trans t1: l1 -> l1 when i > 0 { i := i - 1; }
"""))
    d = result.dcp
    assert len(d.variables) == 1
    v = d.variables[0]
    t1 = by_id(d, "t1")
    assert t1.guard == (v,)
    assert [(u.lhs, u.rhs, u.offset) for u in t1.updates] == [(v, v, -1)]
    t0 = by_id(d, "t0")
    assert [(u.lhs, u.rhs, u.offset) for u in t0.updates] == [(v, SymConst("n"), 0)]


def discard_warnings(result: AbstractionResult) -> list[str]:
    return [w for w in result.warnings if w.startswith("discarded norm ")]


def test_depth_limit_zero_discards_chain():
    result = abstract_program(load_prog("example3.prog"), depth_limit=0)
    # (e-b) is found at depth 1; discovery stops there, so the (i-b) that
    # it leads to at depth 2 is never derived
    assert discard_warnings(result) == ["discarded norm (e-b) (depth limit 0)"]
    assert {n.name() for n in result.norm_vars.values()} == {"(l-i)"}
    assert validate(result.dcp) == []
    # (e-k) lost its only reset, so the repair pruned it entirely
    assert any("(e-k)" in w for w in result.warnings)


PROGNEST3 = """
prog
params: n
vars: i1, i2, i3
entry: l0
exit: le
trans t0: l0 -> l1 { i1 := 0; }
trans in1: l1 -> l2 when i1 < n { i1 := i1 + 1; i2 := 0; }
trans done: l1 -> le when i1 >= n { i1 := ?; }
trans in2: l2 -> l3 when i2 < i1 { i2 := i2 + 1; i3 := 0; }
trans out2: l2 -> l1 when i2 >= i1 { i2 := ?; }
trans in3: l3 -> l3 when i3 < i2 { i3 := i3 + 1; }
trans out3: l3 -> l2 when i3 >= i2 { i3 := ?; }
"""

# t2 moves i by a fresh multiple of y on every pass, so each norm leads to
# a deeper one: (n-i), (n+y-i), (n+3*y-i), (n+7*y-i), ...
DIVERGING_CHAIN = """
prog
params: n
vars: i, y
entry: l0
exit: le
trans t0: l0 -> l1 { i := 0; y := 1; }
trans t1: l1 -> l1 when i < n { i := i + 1; }
trans t2: l1 -> l1 { i := i - y; y := 2 * y; }
"""

SHALLOW_ABSTRACTIONS = {
    ("example3.prog", 0): ([
        "discarded norm (e-b) (depth limit 0)",
        "dropped guard v1 on t4: not defined at l4",
        "dropped v1' <= v1 - 1 on t4: v1 not defined at l4",
        "dropped variable v1 := (e-k) during the well-definedness repair",
    ], """\
# v0 := (l-i)
dcp
consts: l
vars:   v0
entry:  l0
exit:   le
trans t0: l0 -> l1 { v0' <= l; }
trans t1: l1 -> l2 guard(v0) { v0' <= v0 - 1; }
trans t2a: l2 -> l3 { v0' <= v0; }
trans t2b: l2 -> l3 { v0' <= v0; }
trans t3a: l3 -> l4 { v0' <= v0; }
trans t3b: l3 -> l5 { v0' <= v0; }
trans t4: l4 -> l4 { v0' <= v0; }
trans t5: l4 -> l5 { v0' <= v0; }
trans t6: l5 -> l1 { v0' <= v0; }
"""),
    ("example3.prog", 1): ([
        "discarded norm (i-b) (depth limit 1)",
        "dropped v1' <= v2 on t3a: v2 not defined at l3",
        "dropped v2' <= v2 on t3a: v2 not defined at l3",
        "dropped v2' <= v2 on t3b: v2 not defined at l3",
        "dropped guard v1 on t4: not defined at l4",
        "dropped v1' <= v1 - 1 on t4: v1 not defined at l4",
        "dropped v2' <= v2 on t4: v2 not defined at l4",
        "dropped v2' <= v2 on t6: v2 not defined at l5",
        "dropped v2' <= v2 on t1: v2 not defined at l1",
        "dropped v2' <= v2 on t2b: v2 not defined at l2",
        "dropped variable v1 := (e-k) during the well-definedness repair",
    ], """\
# v0 := (l-i)
# v2 := (e-b)
dcp
consts: l
vars:   v0, v2
entry:  l0
exit:   le
trans t0: l0 -> l1 { v0' <= l; v2' <= 0; }
trans t1: l1 -> l2 guard(v0) { v0' <= v0 - 1; }
trans t2a: l2 -> l3 { v0' <= v0; }
trans t2b: l2 -> l3 { v0' <= v0; }
trans t3a: l3 -> l4 { v0' <= v0; }
trans t3b: l3 -> l5 { v0' <= v0; }
trans t4: l4 -> l4 { v0' <= v0; }
trans t5: l4 -> l5 { v0' <= v0; v2' <= 0; }
trans t6: l5 -> l1 { v0' <= v0; }
"""),
    ("prognest(3)", 0): ([
        "discarded norm (-i1) (depth limit 0)",
        "discarded norm (-i2) (depth limit 0)",
        "discarded norm (-i3) (depth limit 0)",
        "discarded norm (i1) (depth limit 0)",
        "discarded norm (i2) (depth limit 0)",
        "discarded norm (i3) (depth limit 0)",
        "dropped v2' <= v2 on done: v2 not defined at l1",
        "dropped v4' <= v4 on done: v4 not defined at l1",
        "dropped guard v1 on in2: not defined at l2",
        "dropped v1' <= v1 - 1 on in2: v1 not defined at l2",
        "dropped v3' <= v3 + 1 on in2: v3 not defined at l2",
        "dropped guard v2 on in3: not defined at l3",
        "dropped v2' <= v2 - 1 on in3: v2 not defined at l3",
        "dropped v4' <= v4 + 1 on in3: v4 not defined at l3",
        "dropped guard v3 on out2: not defined at l2",
        "dropped guard v4 on out3: not defined at l3",
        "dropped v2' <= v2 on t0: v2 not defined at l0",
        "dropped v4' <= v4 on t0: v4 not defined at l0",
        "dropped v1' <= v1 on in3: v1 not defined at l3",
        "dropped v3' <= v3 on in3: v3 not defined at l3",
        "dropped v1' <= v1 on out3: v1 not defined at l3",
        "dropped v3' <= v3 on out3: v3 not defined at l3",
        "dropped variable v1 := (i1-i2) during the well-definedness repair",
        "dropped variable v2 := (i2-i3) during the well-definedness repair",
        "dropped variable v3 := (i2-i1+1) during the well-definedness repair",
        "dropped variable v4 := (i3-i2+1) during the well-definedness repair",
    ], """\
# v0 := (n-i1)
dcp
consts: n
vars:   v0
entry:  l0
exit:   le
trans done: l1 -> le { }
trans in1: l1 -> l2 guard(v0) { v0' <= v0 - 1; }
trans in2: l2 -> l3 { v0' <= v0; }
trans in3: l3 -> l3 { v0' <= v0; }
trans out2: l2 -> l1 { v0' <= v0; }
trans out3: l3 -> l2 { v0' <= v0; }
trans t0: l0 -> l1 { v0' <= n; }
"""),
    ("diverging chain", 2): ([
        "discarded norm (n+7*y-i) (depth limit 2)",
        "dropped v2' <= v2 - 1 on t1: v2 not defined at l1",
        "dropped v1' <= v2 on t2: v2 not defined at l1",
        "dropped v1' <= v1 - 1 on t1: v1 not defined at l1",
        "dropped v0' <= v1 on t2: v1 not defined at l1",
        "dropped guard v0 on t1: not defined at l1",
        "dropped v0' <= v0 - 1 on t1: v0 not defined at l1",
    ], """\
# v0 := (n-i)
# v1 := (n+y-i)
# v2 := (n+3*y-i)
dcp
consts: n
vars:   v0, v1, v2
entry:  l0
exit:   le
trans t0: l0 -> l1 { v0' <= n; v1' <= n + 1; v2' <= n + 3; }
trans t1: l1 -> l1 { }
trans t2: l1 -> l1 { }
"""),
}

INLINE_SOURCES = {"prognest(3)": PROGNEST3, "diverging chain": DIVERGING_CHAIN}


@pytest.mark.parametrize("source,depth", sorted(SHALLOW_ABSTRACTIONS))
def test_shallow_abstraction_warnings_and_output(source, depth):
    # pins the discard warnings, the repair that follows and the program
    # printed after both, in order
    prog = (parse_program(INLINE_SOURCES[source]) if source in INLINE_SOURCES
            else load_prog(source))
    result = abstract_program(prog, depth_limit=depth)
    warnings, text = SHALLOW_ABSTRACTIONS[source, depth]
    assert result.warnings == warnings
    assert format_dcp(result.dcp, result.rename_comment()) == text


def _cascade_text(k: int) -> str:
    """A loop through k locations whose counter the entry havocs: each
    edge steps x up and the back edge is taken while x < n. The repair
    loses the counter's norm one location per round along the loop."""
    lines = ["prog", "params: n", "vars: x", "entry: lb", "exit: le",
             "trans t0: lb -> l1 { x := ?; }"]
    lines += [f"trans s{j}: l{j} -> l{j + 1} {{ x := x + 1; }}" for j in range(1, k)]
    lines += [f"trans back: l{k} -> l1 when x < n {{ x := x + 1; }}",
              f"trans done: l{k} -> le when x >= n {{ }}"]
    return "\n".join(lines) + "\n"


def test_repair_cascade_warnings():
    result = abstract_program(parse_program(_cascade_text(3)))
    assert result.warnings == [
        "dropped v0' <= v0 - 1 on s1: v0 not defined at l1",
        "dropped v0' <= v0 - 1 on s2: v0 not defined at l2",
        "dropped guard v0 on back: not defined at l3",
        "dropped v0' <= v0 - 1 on back: v0 not defined at l3",
        "dropped v0' <= v0 on done: v0 not defined at l3",
        "dropped variable v0 := (n-x) during the well-definedness repair",
    ]
    assert result.dcp.variables == ()
    assert validate(result.dcp) == []


def test_repair_cascade_in_round_order():
    # round j drops the step out of l{j}; the last round reaches l{k}
    k = 300
    result = abstract_program(parse_program(_cascade_text(k)))
    repair = result.warnings[:-1]
    assert len(repair) == k + 2
    assert repair == [
        *(f"dropped v0' <= v0 - 1 on s{j}: v0 not defined at l{j}"
          for j in range(1, k)),
        f"dropped guard v0 on back: not defined at l{k}",
        f"dropped v0' <= v0 - 1 on back: v0 not defined at l{k}",
        f"dropped v0' <= v0 on done: v0 not defined at l{k}",
    ]


def test_uninitialized_counter_degrades_gracefully():
    result = abstract_program(parse_program("""
prog
params: n
vars: i
entry: l0
exit: le
trans t0: l0 -> l1 { }
trans t1: l1 -> l1 when i > 0 { i := i - 1; }
"""))
    # nothing defines the counter, so its norm cannot survive
    assert result.dcp.variables == ()
    assert validate(result.dcp) == []


def test_derived_symbolic_constant():
    # a reset to a parameter combination becomes a named rigid constant
    result = abstract_program(parse_program("""
prog
params: m, n
vars: i
entry: l0
exit: le
trans t0: l0 -> l1 { i := n + 2 * m; }
trans t1: l1 -> l1 when i > 0 { i := i - 1; }
"""))
    d = result.dcp
    assert len(result.derived_consts) == 1
    kname, definition = next(iter(result.derived_consts.items()))
    assert definition == lin(n=1, m=2)
    t0 = by_id(d, "t0")
    assert [(u.lhs, u.rhs, u.offset) for u in t0.updates] == \
        [(d.variables[0], SymConst(kname), 0)]


def test_diverging_norm_chain_terminates():
    # the chain never stabilizes; discovery stops one level past the depth
    # limit, and the result is repaired and valid
    result = abstract_program(parse_program(DIVERGING_CHAIN), depth_limit=2)
    assert discard_warnings(result) == ["discarded norm (n+7*y-i) (depth limit 2)"]
    assert validate(result.dcp) == []


def test_noncounter_guard_yields_no_norms():
    # x := 2x is not a constant-offset counter update, so the loop guard
    # contributes no norm and the abstraction is empty but valid
    result = abstract_program(parse_program("""
prog
params: n
vars: x
entry: l0
exit: le
trans t0: l0 -> l1 { x := n; }
trans t1: l1 -> l1 when x > 0 { x := 2 * x; }
"""))
    assert result.dcp.variables == ()
    assert validate(result.dcp) == []


# -- invariance sampling ---------------------------------------------------------

def _norm_expr_of_atom(result: AbstractionResult, atom, params):
    if isinstance(atom, IntConst):
        return LinExpr(atom.value)
    if isinstance(atom, str):
        return result.norm_vars[atom]
    if atom.name in result.derived_consts:
        return result.derived_consts[atom.name]
    assert atom.name in params
    return LinExpr.from_mapping(0, {atom.name: 1})


@pytest.mark.parametrize("source,n_samples", [
    ("example3.prog", 1000),
    (COUNTDOWN_GE, 1000),
])
def test_emitted_constraints_are_invariant(source, n_samples, data_dir):
    if source.endswith(".prog"):
        prog = load_prog(source)
    else:
        prog = parse_program(source)
    result = abstract_program(prog)
    rng = random.Random(4242)
    names = list(prog.variables) + list(prog.sym_consts)
    concrete = {t.id: t for t in prog.transitions}
    for t in result.dcp.transitions:
        ct = concrete[t.id]
        checked = 0
        attempts = 0
        while checked < n_samples and attempts < n_samples * 50:
            attempts += 1
            s1 = {v: rng.randint(-8, 8) for v in names}
            if not guard_holds(ct, s1):
                continue
            checked += 1
            s2 = dict(s1)
            for v, rhs in ct.updates:
                s2[v] = rng.randint(-8, 8) if rhs is HAVOC else lin_value(rhs, s1)
            for u in t.updates:
                e1 = result.norm_vars[u.lhs]
                e2 = _norm_expr_of_atom(result, u.rhs, prog.sym_consts)
                assert lin_value(e1, s2) <= lin_value(e2, s1) + u.offset, (t.id, str(u))
            for g in t.guard:
                assert lin_value(result.norm_vars[g], s1) > 0, (t.id, g)
        assert checked > 0, f"guard of {t.id} never satisfied in sampling"


# -- the coefficient index against its references -------------------------------

def _reference_steps(prog):
    """`abstract_transition` by the candidate loop over the guessed norms and
    every norm a step has created since. Unlike the norms `abstract_program`
    knows, the list also holds those found too deep; but every created norm
    has constant 0, so matching one gives the same step as creating it."""
    known = list(guess_norms(prog))

    def step(e, t, index):
        s = ref_abstract_transition(e, t, known)
        if s is not None and not s.rhs.is_const and s.rhs not in known:
            known.append(s.rhs)
        return s
    return step


def _outcome(result: AbstractionResult):
    return (format_dcp(result.dcp, result.rename_comment()), result.warnings,
            result.norm_vars, result.derived_consts)


# i < n and i <= n guess (n-i) and (n-i+1), and (n-j) across t2 is n-i-2:
# the first of the two is the target; t3 has two guard facts that are norms
SHARED_COEFFICIENTS = """
prog
params: n
vars: i, j
entry: l0
exit: le
trans t0: l0 -> l1 { i := 0; j := 0; }
trans t1: l1 -> l1 when i < n { i := i + 1; }
trans t2: l1 -> l2 when i <= n { j := i + 2; }
trans t3: l2 -> l2 when j < n, i <= n { j := j + 1; }
trans t4: l2 -> l1 when j >= n { i := i + 1; }
trans t5: l1 -> le when i > n { }
"""


def test_abstraction_matches_the_candidate_loop(monkeypatch):
    from test_fuzz import _nested_counting_text

    rng = random.Random(13)
    texts = [SHARED_COEFFICIENTS, PROGNEST3, _cascade_text(3), _cascade_text(10)]
    texts += [_loop_text("prog", k, diamonds=d) for k in (3, 14) for d in (True, False)]
    texts += [_random_prog_text(rng) for _ in range(40)]
    texts += [_random_nested_prog_text(rng) for _ in range(30)]
    texts += [_random_nested_prog_text(rng, locations=7, transitions=14, entries=3)
              for _ in range(15)]
    texts += [_nested_counting_text(rng) for _ in range(10)]
    progs = [load_prog("example3.prog")] + [parse_program(t) for t in texts]
    guards = 0
    for p in progs:
        concrete = {t.id: t for t in p.transitions}
        for depth_limit, keep_names in [(0, False), (1, True), (2, True), (5, False)]:
            got = abstract_program(p, depth_limit, keep_names=keep_names)
            with monkeypatch.context() as m:
                m.setattr(abstraction, "abstract_transition", _reference_steps(p))
                want = abstract_program(p, depth_limit, keep_names=keep_names)
            assert _outcome(got) == _outcome(want), p
            # a kept variable is a guard where its norm is one of the
            # concrete guard's facts, unless the repair dropped that guard
            for t in got.dcp.transitions:
                dropped = f"dropped guard {{}} on {t.id}: not defined at {t.source}"
                assert t.guard == tuple(sorted(
                    v for v, e in got.norm_vars.items()
                    if ref_infer_guard(e, concrete[t.id])
                    and dropped.format(v) not in got.warnings)), p
                guards += len(t.guard)
    assert guards > 100


def _shortcut_programs():
    """The `tests/data` inputs, prognest(2..7) and the random generators of
    `test_abstraction_matches_the_candidate_loop`."""
    from test_fuzz import _nested_counting_text

    rng = random.Random(29)
    texts = [families().prognest(k).text for k in range(2, 8)]
    texts += [_random_prog_text(rng) for _ in range(40)]
    texts += [_random_nested_prog_text(rng) for _ in range(30)]
    texts += [_random_nested_prog_text(rng, locations=7, transitions=14, entries=3)
              for _ in range(15)]
    texts += [_nested_counting_text(rng) for _ in range(10)]
    return ([load_prog(path.name) for path in sorted(DATA.glob("*.prog"))]
            + [parse_program(t) for t in texts])


def test_a_transition_that_assigns_none_of_a_norms_names_keeps_it(monkeypatch):
    """The premise of `abstract_program`'s shortcut: across a transition
    that assigns (or havocs) none of norm e's names, `abstract_transition`
    gives e' <= e. Checked on every norm the fixpoint knows, those cut at
    the depth limit included, and every such transition; the fixpoint
    itself calls `abstract_transition` on none of these pairs, and on each
    other pair at most once."""
    real = abstraction.abstract_transition
    pairs = 0
    for p in _shortcut_programs():
        for depth_limit in (1, 5):
            norms = dict.fromkeys(guess_norms(p))
            calls = []

            def spy(e, t, index):
                step = real(e, t, index)
                calls.append((e, t.id))
                norms[e] = None
                if step is not None and not step.rhs.is_const:
                    norms[step.rhs] = None
                return step
            with monkeypatch.context() as m:
                m.setattr(abstraction, "abstract_transition", spy)
                abstract_program(p, depth_limit)
            assert len(set(calls)) == len(calls), p
            called = set(calls)
            index = {e.coeffs: e for e in reversed(norms)}
            for e in norms:
                for t in p.transitions:
                    if e.names.isdisjoint(v for v, _ in t.updates):
                        assert (e, t.id) not in called, p
                        assert real(e, t, index) == AbstractStep(e, 0), (e, t)
                        pairs += 1
    assert pairs > 5000


@pytest.mark.parametrize("k", [3, 7])
def test_a_kept_norm_shares_one_constraint(k):
    """Each variable's v' <= v is one object on every transition that
    assigns none of its norm's names, as the `.dcp` reader shares one
    object per update text."""
    p = parse_program(families().prognest(k).text)
    result = abstract_program(p, keep_names=True)
    concrete = {t.id: t for t in p.transitions}
    shared = 0
    for v, e in result.norm_vars.items():
        kept = [u for t in result.dcp.transitions for u in t.updates
                if u.lhs == v and e.names.isdisjoint(w for w, _ in concrete[t.id].updates)]
        assert all(u is kept[0] and str(u) == f"{v}' <= {v}" for u in kept), v
        shared += len(kept) > 1
    assert shared >= k
