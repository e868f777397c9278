"""Golden bound values for the worked examples, in every analysis mode, and
the bottom-up solve checked against the recursive evaluator it replaced."""

import itertools
import random
import re
import time

import pytest

from dcbound import expr
from dcbound.abstraction import abstract_program
from dcbound.dcp import Atom, Transition, parse_dcp
from dcbound.engine import Analysis, AnalysisMode
from dcbound.localbounds import ONE, local_bound_map
from dcbound.oracle import Verdict, check_soundness
from dcbound.resetgraph import DEFAULT_RESET_PATH_CAP, ResetPath, \
    ResetPathOverflow, build_reset_graph, optimal_reset_paths

from conftest import DATA, by_id, is_sound, load_dcp, load_prog

FREE, CTX, OPT = AnalysisMode.FREE, AnalysisMode.CTX, AnalysisMode.OPT


def analysis(name, mode):
    return Analysis(load_dcp(name), mode)


def tb(a, tid):
    return str(a.tb(tid))


def vb(a, v):
    return str(a.vb(v))


def incr(a, atom):
    """Incr(atom) from public values: the sum of TB(t) * c over the atom's
    increments (t, c) in the working program, or 0 for a rigid atom or one
    with no increment."""
    incs = (build_reset_graph(a.working).increments_of(atom)
            if isinstance(atom, str) else ())
    if not incs:
        return expr.IntConst(0)
    return expr.add(*[expr.mul(a.tb(t), c) for t, c in incs])


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
    assert str(incr(a, "r")) == "n"
    assert str(incr(a, "x")) == "0"


def test_vb_of_an_unknown_variable_raises():
    a = analysis("example1.dcp", FREE)
    assert a.vb(expr.SymConst("n")) == expr.SymConst("n")  # rigid: as is
    with pytest.raises(ValueError, match="unknown variable 'nope'"):
        a.vb("nope")


def test_tb_of_an_unknown_transition_raises():
    a = analysis("example1.dcp", CTX)
    assert a.tb("t3") == a.tb(by_id(a.working, "t3"))
    with pytest.raises(ValueError, match="unknown transition 'nope'") as ei:
        a.tb("nope")
    assert ei.value.__cause__ is None and ei.value.__suppress_context__


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
    assert str(incr(a, "x")) == "2*n"
    assert vb(a, "x") == "2*n + max(m1,m2)"
    assert tb(a, "t3") == "2*n + max(m1,m2)"
    assert str(a.complexity()) == "3*n + max(m1,m2)"


def test_example_2_non_variable_atoms():
    a = analysis("example2.dcp", FREE)
    from dcbound.expr import IntConst, SymConst
    assert str(a.vb(SymConst("n"))) == "n"
    assert str(a.vb(IntConst(3))) == "3"
    assert str(incr(a, SymConst("n"))) == "0"


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
    assert str(incr(a, "i")) == "0"


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


# -- the recursive reference ---------------------------------------------------
#
# The memoized recursive evaluator that the bottom-up solve replaced, with the
# recursive reset-path search it used: a query that re-enters itself while
# being computed yields undef. Only for programs of modest depth.

def _ref_optimal_reset_paths(dcp, graph, var, cap):
    results = []

    def extend(path):
        head = path.in_atom
        extended = False
        if isinstance(head, str):
            for e in graph.into(head):
                cand = ResetPath((e,) + path.edges)
                if is_sound(dcp, cand):
                    extended = True
                    extend(cand)
        if not extended:
            results.append(path)
            if len(results) > cap:
                raise ResetPathOverflow(
                    f"more than {cap} optimal reset paths end in {var}")

    for e in graph.into(var):
        extend(ResetPath((e,)))
    return results


class _RecursiveAnalysis:
    def __init__(self, program, mode, max_reset_paths=DEFAULT_RESET_PATH_CAP):
        self.mode = mode
        self.original = program
        self.warnings = []
        self._max_reset_paths = max_reset_paths
        self._memo = {}
        self._active = set()
        self._paths = {}
        self._reset = build_reset_graph(program)
        self.working = self._reset.pruned
        self.zeta = local_bound_map(self.working)

    def _cached(self, key, compute):
        if key in self._memo:
            return self._memo[key]
        if key in self._active:
            return expr.UNDEFINED
        self._active.add(key)
        try:
            result = compute()
        finally:
            self._active.discard(key)
        self._memo[key] = result
        return result

    def incr(self, atom: Atom):
        if not isinstance(atom, str):
            return expr.IntConst(0)
        incs = self._reset.increments_of(atom)
        if not incs:
            return expr.IntConst(0)
        return expr.add(*[expr.mul(self.tb(t), c) for t, c in incs])

    def vb(self, atom: Atom):
        if not isinstance(atom, str):
            return atom
        v = atom

        def compute():
            resets = self._reset.graph.into(v)
            if not resets:
                return expr.UNDEFINED
            reset_caps = [expr.add(self.vb(e.src), e.offset) for e in resets]
            return expr.add(self.incr(atom), expr.maximum(*reset_caps))

        return self._cached(("VB", v), compute)

    def tb(self, t: Transition | str):
        if isinstance(t, str):
            t = by_id(self.working, t)
        return self._cached(("TB", t.id), lambda: self._tb_compute(t))

    def _tb_compute(self, t):
        bound_var = self.zeta[t.id]
        if bound_var == ONE:
            return expr.IntConst(1)
        if bound_var is None:
            return expr.UNDEFINED
        if self.mode is FREE:
            bound = self._tb_free(bound_var)
        else:
            bound = self._tb_context(bound_var)
        entries = self.zeta.entries.get(t.id)
        return expr.add(bound, entries) if entries else bound

    def _tb_free(self, v):
        resets = self._reset.graph.into(v)
        if not resets:
            return expr.UNDEFINED
        terms = [self.incr(v)]
        for e in resets:
            terms.append(expr.mul(self.tb(e.trans),
                                  expr.maximum(expr.add(self.vb(e.src), e.offset), 0)))
        return expr.add(*terms)

    def _reset_paths(self, v):
        if v not in self._paths:
            try:
                self._paths[v] = _ref_optimal_reset_paths(
                    self.working, self._reset.graph, v, self._max_reset_paths)
            except ResetPathOverflow as exc:
                self.warnings.append(str(exc))
                self._paths[v] = None
        return self._paths[v]

    def _tb_set(self, transitions):
        return expr.minimum(*[self.tb(t) for t in sorted(transitions, key=lambda t: t.id)])

    def _tb_context(self, v):
        paths = self._reset_paths(v)
        if not paths:
            return expr.UNDEFINED
        graph = self._reset.graph
        once = []
        charged = []
        for k in paths:
            if self.mode is CTX:
                charged.append(k.atoms)
                continue
            multi = []
            for a in k.atoms:
                if graph.path_count(a, v) > 1:
                    multi.append(a)
                elif a not in once:
                    once.append(a)
            charged.append(tuple(multi))
        terms = [self.incr(a) for a in once]
        for k, atoms in zip(paths, charged):
            contrib = expr.mul(
                self._tb_set(k.transitions),
                expr.maximum(expr.add(self.vb(k.in_atom), k.offset), 0))
            terms.append(expr.add(contrib, *[self.incr(a) for a in atoms]))
        return expr.add(*terms)

    def complexity(self):
        back = self.original.back_edges()
        if not back:
            return expr.IntConst(0)
        return expr.add(*[self.tb(t.id) for t in back])


def _random_dcp_text(rng: random.Random) -> str:
    """Up to 8 locations, 6 variables and 12 transitions. Every transition
    constrains every variable (the entry from rigid atoms only); resets from
    other variables make reset cycles and dependency cycles likely."""
    locs = [f"l{i}" for i in range(1, rng.randint(1, 8) + 1)]
    consts = ["n"] + (["m"] if rng.random() < 0.4 else [])
    variables = list("abcdef")[: rng.randint(1, 6)]
    cross = rng.choice([0.1, 0.25, 0.4])

    def offset(lo, hi):
        c = rng.randint(lo, hi)
        return f" + {c}" if c > 0 else (f" - {-c}" if c < 0 else "")

    lines = ["dcp", "consts: " + ", ".join(consts),
             "vars: " + ", ".join(variables), "entry: lb", "exit: le"]
    entry = [f"{v}' <= {rng.choice(consts + ['0', '1'])}{offset(0, 1)};"
             for v in variables]
    lines.append(f"trans t0: lb -> {locs[0]} {{ {' '.join(entry)} }}")
    for i in range(1, rng.randint(1, 11) + 1):
        updates = []
        for v in variables:
            kind = rng.random()
            if kind < cross and len(variables) > 1:
                other = rng.choice([w for w in variables if w != v])
                updates.append(f"{v}' <= {other}{offset(-1, 1)};")
            elif kind < 0.8:
                updates.append(f"{v}' <= {v}{offset(-2, 2)};")
            else:
                updates.append(f"{v}' <= {rng.choice(consts + ['0'])}{offset(0, 1)};")
        guard = [v for v in variables if rng.random() < 0.5]
        guard_text = f" guard({','.join(guard)})" if guard else ""
        lines.append(f"trans t{i}: {rng.choice(locs)} -> {rng.choice(locs)}"
                     f"{guard_text} {{ {' '.join(updates)} }}")
    return "\n".join(lines) + "\n"


def _assert_matches_reference(d, mode, cap=DEFAULT_RESET_PATH_CAP):
    new = Analysis(d, mode, max_reset_paths=cap)
    ref = _RecursiveAnalysis(d, mode, max_reset_paths=cap)
    for t in new.working.transitions:
        assert new.tb(t.id) == ref.tb(t.id), t.id
    for v in new.working.variables:
        assert new.vb(v) == ref.vb(v), v
        assert incr(new, v) == ref.incr(v), v
    assert new.complexity() == ref.complexity()
    cap_warnings = [w for w in new.warnings if "reset paths" in w]
    assert sorted(cap_warnings) == sorted(ref.warnings)
    if mode is CTX:  # the reset-path search, order and cap included
        reset = build_reset_graph(d)
        for v in reset.pruned.variables:
            try:
                expected = _ref_optimal_reset_paths(reset.pruned, reset.graph, v, cap)
            except ResetPathOverflow:
                with pytest.raises(ResetPathOverflow):
                    optimal_reset_paths(reset.pruned, reset.graph, v, cap)
            else:
                assert optimal_reset_paths(reset.pruned, reset.graph, v, cap) == expected


def _data_programs():
    out = {p.name: parse_dcp(p.read_text()) for p in sorted(DATA.glob("*.dcp"))}
    out["example3.prog"] = abstract_program(load_prog("example3.prog")).dcp
    return out


@pytest.mark.parametrize("name", sorted(_data_programs()))
@pytest.mark.parametrize("mode", [FREE, CTX, OPT])
def test_matches_recursive_reference(name, mode):
    d = _data_programs()[name]
    _assert_matches_reference(d, mode)
    _assert_matches_reference(d, mode, cap=1)


def test_matches_recursive_reference_on_random_programs():
    rng = random.Random(20261018)
    for _ in range(320):
        d = parse_dcp(_random_dcp_text(rng))
        for mode in (FREE, CTX, OPT):
            _assert_matches_reference(d, mode)
        _assert_matches_reference(d, CTX, cap=1)


# -- one working program in every mode -------------------------------------------

# Two programs of the 1500 that `test_fuzz._random_dcp_text` draws from
# Random(11) with locations=(1, 4), variables=(2, 4), transitions=(2, 6).
# In each, a and c lie on a reset cycle, and the named transition's local
# bound is reset from one of them. So the transition gets a FREE bound only
# on the program without a and c. In the first program t2 can loop forever,
# so no exploration completes and the verdict is PASS-PARTIAL.
_BOUNDED_ONCE_PRUNED = [
    ("""dcp
consts: n, m
vars: a, b, c, d
entry: lb
exit: le
trans t0: lb -> l1 { a' <= 1; b' <= m + 1; c' <= 0 + 1; d' <= m + 1; }
trans t1: l1 -> l1 guard(a,b,c,d) { a' <= m; b' <= b + 2; c' <= c - 2; d' <= d - 2; }
trans t2: l1 -> l1 guard(b,c) { a' <= c; b' <= b; c' <= 0 + 1; d' <= d - 2; }
trans t3: l1 -> l1 guard(a,b,d) { a' <= a + 1; b' <= b + 2; c' <= c; d' <= d - 1; }
trans t4: l1 -> l1 guard(a,b,d) { a' <= a + 1; b' <= b + 1; c' <= a - 1; d' <= d - 2; }
""", "t1", "1 + m", Verdict.PASS_PARTIAL),
    ("""dcp
consts: n, m
vars: a, b, c, d
entry: lb
exit: le
trans t0: lb -> l1 { a' <= 1 + 1; b' <= 1 + 1; c' <= m + 1; d' <= m + 1; }
trans t1: l2 -> l1 guard(a,b,d) { a' <= c + 1; b' <= n - 1; c' <= c; d' <= d + 2; }
trans t2: l1 -> l1 guard(a,b,c,d) { a' <= n - 1; b' <= b; c' <= c - 1; d' <= d - 2; }
trans t3: l1 -> l1 guard(b,d) { a' <= a - 2; b' <= b - 2; c' <= a + 1; d' <= n; }
trans t4: l2 -> l1 guard(a,b,c,d) { a' <= a + 1; b' <= n + 1; c' <= 0 - 1; d' <= d; }
""", "t2", "(3 + max(-1 + n,0) + n)*n + 3 + m", Verdict.PASS),
]


def test_free_bounds_the_program_without_reset_cycles():
    for text, tid, bound, verdict in _BOUNDED_ONCE_PRUNED:
        d = parse_dcp(text)
        report = Analysis(d, FREE).report()
        assert report.warnings == [
            "removed variables on reset cycles (and dependents): a, c"]
        assert str(report.tb[tid]) == bound
        for n, m in itertools.product(range(5), repeat=2):
            result = check_soundness(d, report, {"n": n, "m": m}, step_cap=2000)
            assert result.verdict is verdict, (tid, n, m)


def test_every_mode_removes_the_same_variables():
    rng = random.Random(20261020)
    removed = 0
    for _ in range(300):
        d = parse_dcp(_random_dcp_text(rng))
        warnings = {mode: [w for w in Analysis(d, mode).report().warnings
                           if w.startswith("removed variables")]
                    for mode in (FREE, CTX, OPT)}
        assert warnings[FREE] == warnings[CTX] == warnings[OPT]
        removed += bool(warnings[FREE])
    assert removed > 50


# -- name invariance -------------------------------------------------------------

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _fresh_names(rng, prefix, count):
    names = set()
    while len(names) < count:
        names.add(prefix + "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=6)))
    return sorted(names)


def _renamed(d, text, rng):
    """The program text with variables, locations and transition ids
    alpha-renamed (constants keep their names), and the renaming. Variables
    keep their relative order, because the local bound among several
    candidates is the smallest name; locations and ids are permuted."""
    rename = dict(zip(sorted(d.variables), _fresh_names(rng, "v", len(d.variables))))
    for prefix, old in (("L", list(d.locations)),
                        ("T", [t.id for t in d.transitions])):
        new = _fresh_names(rng, prefix, len(old))
        rng.shuffle(new)
        rename.update(zip(old, new))
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return _WORD.sub(lambda m: rename.get(m.group(), m.group()), body), rename


@pytest.mark.parametrize("mode", [FREE, CTX, OPT])
def test_report_invariant_under_renaming(mode):
    rng = random.Random(7)
    texts = [p.read_text() for p in sorted(DATA.glob("*.dcp"))]
    texts += [_random_dcp_text(rng) for _ in range(150)]
    for text in texts:
        d = parse_dcp(text)
        renamed_text, rename = _renamed(d, text, rng)
        renamed = parse_dcp(renamed_text)
        report = Analysis(d, mode).report()
        other = Analysis(renamed, mode).report()
        assert other.tb == {rename[t]: b for t, b in report.tb.items()}
        assert other.vb == {rename[v]: b for v, b in report.vb.items()}
        back = {rename[t.id] for t in d.back_edges()}
        if back == {t.id for t in renamed.back_edges()}:
            assert other.complexity == report.complexity


# -- deep inputs -------------------------------------------------------------------

def _seeded_chain_text(k: int, seed: int) -> str:
    """Nested counters x1..xk: down_j moves from level j to j+1 and resets
    x_(j+1) from x_j, up_j returns, spin drains x_k. Names are seeded random
    identifiers, so the order in which transitions are queried is not the
    nesting order."""
    rng = random.Random(seed)
    names = _fresh_names(rng, "x", k)
    rng.shuffle(names)
    x = [None] + names
    tid = iter(rng.sample(_fresh_names(rng, "t", 2 * k + 1), 2 * k + 1))

    def keep(vs):
        return " ".join(f"{v}' <= {v};" for v in vs)

    lines = ["dcp", "consts: n", f"vars: {', '.join(x[1:])}", "entry: lb", "exit: le",
             f"trans {next(tid)}: lb -> l1 {{ {x[1]}' <= n; }}"]
    for j in range(1, k):
        lines.append(f"trans {next(tid)}: l{j} -> l{j + 1} guard({x[j]}) "
                     f"{{ {x[j]}' <= {x[j]} - 1; {x[j + 1]}' <= {x[j]}; {keep(x[1:j])} }}")
        lines.append(f"trans {next(tid)}: l{j + 1} -> l{j} {{ {keep(x[1:j + 1])} }}")
    lines.append(f"trans {next(tid)}: l{k} -> l{k} guard({x[k]}) "
                 f"{{ {x[k]}' <= {x[k]} - 1; {keep(x[1:k])} }}")
    lines.append(f"trans {next(tid)}: l1 -> le {{ }}")
    return "\n".join(lines) + "\n"


def _straight_line_text(k: int) -> str:
    """k + 1 transitions in a row: the first resets one variable from n, each
    later one resets the next variable from the one before. Variables sort
    deepest first."""
    x = [f"x{k - j:05d}" for j in range(k + 1)]
    lines = ["dcp", "consts: n", f"vars: {', '.join(x)}", "entry: lb", "exit: le",
             f"trans t0: lb -> l0 {{ {x[0]}' <= n; }}"]
    lines += [f"trans t{j}: l{j - 1} -> l{j} {{ {x[j]}' <= {x[j - 1]}; }}"
              for j in range(1, k + 1)]
    lines.append(f"trans t{k + 1}: l{k} -> le {{ }}")
    return "\n".join(lines) + "\n"


def test_deep_inputs_do_not_recurse():
    start = time.perf_counter()
    k = 220
    chain = parse_dcp(_seeded_chain_text(k, seed=8))
    spin = expr.mul(*[expr.SymConst("n")] * k)
    line = parse_dcp(_straight_line_text(1200))
    for mode in (FREE, CTX, OPT):
        report = Analysis(chain, mode).report()
        assert set(map(str, report.vb.values())) == {"n"}
        assert spin in report.tb.values()
        report = Analysis(line, mode).report()
        assert set(map(str, report.vb.values())) == {"n"}
        assert str(report.complexity) == "0"
    assert time.perf_counter() - start < 5
