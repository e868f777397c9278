"""Bound-expression normalization, evaluation, printing, parsing."""

import random
import time

import pytest

from dcbound import expr
from dcbound.abstraction import abstract_program
from dcbound.dcp import DcpError, parse_dcp
from dcbound.engine import Analysis, AnalysisMode
from dcbound.expr import (
    UNDEFINED,
    Compound,
    IntConst,
    SymConst,
    add,
    evaluate,
    maximum,
    minimum,
    mul,
    parse_expr,
)
from dcbound.program import LinExpr, parse_linexpr, parse_program

from conftest import DATA, families
from test_fuzz import _random_dcp_text

N = SymConst("n")
M1 = SymConst("m1")
M2 = SymConst("m2")


def test_constant_folding_and_flattening():
    # n + (n + 0) collapses to one term with coefficient 2
    e = add(N, add(N, IntConst(0)))
    assert e == Compound("*", (IntConst(2), N))
    assert str(e) == "2*n"


def test_max_set_semantics():
    e = maximum(maximum(M1, M2), maximum(M2, M1))
    assert e == Compound("max", (M1, M2))
    assert str(e) == "max(m1,m2)"


def test_undef_absorption():
    assert mul(N, UNDEFINED) == UNDEFINED
    assert add(N, UNDEFINED) == UNDEFINED
    assert maximum(IntConst(3), UNDEFINED) == UNDEFINED
    assert minimum(UNDEFINED, UNDEFINED) == UNDEFINED


def test_build_examples():
    assert add(N, IntConst(1), IntConst(-1)) == N
    assert mul(IntConst(1), N) == N
    with pytest.raises(ValueError):
        add()


def test_evaluate_examples():
    e = add(mul(2, N), maximum(M1, M2))
    assert evaluate(e, {"n": 3, "m1": 5, "m2": 7}) == 13
    assert evaluate(mul(N, N), {"n": 4}) == 16
    assert evaluate(UNDEFINED, {}) is None
    with pytest.raises(expr.EvaluationError):
        evaluate(N, {})


def test_canonical_print_order():
    # sum terms sorted lexicographically by printed form
    assert str(add(mul(N, N), mul(2, N))) == "2*n + n*n"
    assert str(add(N, mul(N, N))) == "n + n*n"
    assert str(add(N, mul(2, N), maximum(M1, M2))) == "3*n + max(m1,m2)"


def test_sum_inside_product_parenthesized():
    e = mul(N, add(N, IntConst(1)))
    assert str(e) == "(1 + n)*n"
    assert parse_expr(str(e)) == e


def test_max_zero_dropped_for_nonneg():
    assert maximum(N, 0) == N
    assert maximum(add(mul(2, N), maximum(M1, M2)), 0) == add(mul(2, N), maximum(M1, M2))
    # not provably nonnegative: keep the max
    e = maximum(add(N, IntConst(-1)), 0)
    assert isinstance(e, Compound) and e.op == "max"
    assert str(e) == "max(-1 + n,0)"


def test_min_one_factor_collapses():
    # min(1, n) * n == n over the naturals
    assert mul(minimum(1, N), N) == N
    assert str(add(mul(minimum(1, N), N), 0)) == "n"
    # without the shared factor the min survives
    assert str(mul(minimum(1, N), M1)) == "m1*min(1,n)"


def test_int_folding_in_max_min():
    assert maximum(IntConst(2), IntConst(5)) == IntConst(5)
    assert minimum(IntConst(2), IntConst(5)) == IntConst(2)
    assert str(minimum(1, N)) == "min(1,n)"


def test_mul_by_zero():
    assert mul(0, N) == IntConst(0)
    assert add(mul(0, N), 0) == IntConst(0)


def test_parse_round_trip_golden():
    for text in ["2*n", "n + n*n", "2*n + max(m1,m2)", "min(1,n)", "undef",
                 "max(-1 + n,0)", "n*n*n", "-1 + n", "max(m1,m2,0)"]:
        e = parse_expr(text)
        assert parse_expr(str(e)) == e


def test_parse_errors():
    for bad in ["", "n +", "max(n)", "2 ** n", "n $ 1", "(n", "n)"]:
        with pytest.raises(ValueError):
            parse_expr(bad)


@pytest.mark.parametrize("text,message", [
    ("n $ 1", "unexpected character '$' (at offset 2)"),
    ("x + \u00b2n", "unexpected character '\u00b2' (at offset 4)"),
    ("n +\x0b1", "unexpected character '\\x0b' (at offset 3)"),
    ("max(n,", "unexpected end of input (at offset 6)"),
    ("n + \t", "unexpected end of input (at offset 5)"),
    ("max n", "expected '(', found 'n' (at offset 4)"),
    ("(n + 1, 2)", "expected ')', found ',' (at offset 6)"),
    ("n + * 2", "unexpected token '*' (at offset 4)"),
    ("n 2", "trailing input '2' (at offset 2)"),
    ("max(n (1))", "expected ',' or ')', found '(' (at offset 6)"),
    ("1 + min(2)", "min() needs at least two arguments (at offset 4)"),
    ("max(n)", "max() needs at least two arguments (at offset 0)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(expr.ExprParseError) as info:
        parse_expr(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,value,messages", [
    (" \t", LinExpr(), ["3: empty expression"]),
    ("a + 2*", LinExpr(0, (("a", 1),)), ["5: cannot parse term '2*'"]),
    ("a + zz - 3", LinExpr(-3, (("a", 1),)), ["5: unknown identifier 'zz'"]),
    ("a+-3", LinExpr(-3, (("a", 1),)), []),
    ("-q + 2*b + 2*", LinExpr(0, (("b", 2),)),
     ["2: unknown identifier 'q'", "12: cannot parse term '2*'"]),
    ("a + -3", LinExpr(-3, (("a", 1),)), []),
    ("a - -3", LinExpr(3, (("a", 1),)), []),
    ("a - - 3", LinExpr(3, (("a", 1),)), []),
    ("a - -b", LinExpr(0, (("a", 1), ("b", 1))), []),
    ("a - + - 3", LinExpr(-3, (("a", 1),)), ["7: missing term in 'a - + - 3'"]),
])
def test_parse_linexpr_diagnostics(text, value, messages):
    # each message starts with the column of its term (`text` is at column 1)
    diags = []
    assert parse_linexpr(text, {"a", "b"}, 7, diags) == value
    assert [str(d) for d in diags] == [f"7:{m}" for m in messages]


def test_parse_linexpr_diagnostics_count_from_the_given_column():
    diags = []
    parse_linexpr("  a + 2*", {"a"}, 7, diags, col=40)
    assert [str(d) for d in diags] == ["7:46: cannot parse term '2*'"]


def test_parse_expr_fuzz_bad_flag_values():
    # what --override-bound may be given: a normal form or ExprParseError,
    # never another exception (int() rejected '²', which isdigit() accepts)
    pieces = list("0123456789nm_+*(),-") + [
        "max", "min", "undef", "²", "①", "٣", "é", " ", "\t", "\n"]
    rng = random.Random(20261018)
    parsed = 0
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        try:
            e = parse_expr(text)
        except expr.ExprParseError:
            continue
        parsed += 1
        assert parse_expr(str(e)) == e, text
    assert parsed > 100


# ---------------------------------------------------------------------------
# randomized property suites (acceptance criterion: 1000 expressions)
# ---------------------------------------------------------------------------

_CONSTS = ["n", "m1", "m2"]


def _random_expr(rng: random.Random, depth: int) -> expr.BoundExpr:
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.45:
            return IntConst(rng.randint(-3, 3))
        if r < 0.9:
            return SymConst(rng.choice(_CONSTS))
        return UNDEFINED
    op = rng.choice(["+", "*", "max", "min"])
    width = rng.randint(1, 3)
    return Compound(op, tuple(_random_expr(rng, depth - 1) for _ in range(width)))


_CONSTRUCTOR = {"+": add, "*": mul, "max": maximum, "min": minimum}


def _normalize(e: expr.BoundExpr) -> expr.BoundExpr:
    """The normal form of a tree built by hand from Compound nodes: each
    node's normalized operands go through the constructor's normalization
    (the former `expr.normalize`, kept here to test the constructors)."""
    if not isinstance(e, Compound):
        return e
    args = [_normalize(a) for a in e.args]
    if e.op == "+":
        return expr._norm_sum(args)
    if e.op == "*":
        return expr._norm_product(args)
    return expr._norm_maxmin(args, e.op)


def test_normalize_idempotent_and_semantics_preserved():
    rng = random.Random(12345)
    for _ in range(1000):
        e = _random_expr(rng, rng.randint(1, 4))
        ne = _normalize(e)
        assert _normalize(ne) == ne
        v = {c: rng.randint(0, 16) for c in _CONSTS}
        assert evaluate(ne, v) == evaluate(e, v)
        # the constructors, given normal arguments, agree with normalize on
        # every hand-built node: they need not re-normalize their arguments
        stack = [e]
        while stack:
            node = stack.pop()
            children = getattr(node, "args", ())
            if children:
                ctor = _CONSTRUCTOR[node.op]
                assert ctor(*map(_normalize, children)) == _normalize(node)
                stack.extend(children)


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(500):
        e = _normalize(_random_expr(rng, rng.randint(1, 4)))
        assert parse_expr(str(e)) == e


def test_undef_absorption_random():
    rng = random.Random(7)
    for _ in range(200):
        args = [_normalize(_random_expr(rng, 2)) for _ in range(rng.randint(1, 3))]
        args.insert(rng.randrange(len(args) + 1), UNDEFINED)
        ctor = rng.choice([add, mul, maximum, minimum])
        assert ctor(*args) == UNDEFINED


# ---------------------------------------------------------------------------
# stored printed form, hash and sign, against the recursive definitions
# ---------------------------------------------------------------------------

def _ref_str(e: expr.BoundExpr) -> str:
    """Printing as a recursive walk of the tree (the definition)."""
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, SymConst):
        return e.name
    if isinstance(e, expr.Undefined):
        return "undef"
    if e.op == "+":
        return " + ".join(_ref_str(t) for t in e.args)
    if e.op == "*":
        return "*".join("(" + _ref_str(f) + ")" if getattr(f, "op", None) == "+"
                        else _ref_str(f) for f in e.args)
    return e.op + "(" + ",".join(_ref_str(a) for a in e.args) + ")"


def _ref_nonneg(e: expr.BoundExpr) -> bool:
    if isinstance(e, IntConst):
        return e.value >= 0
    if isinstance(e, SymConst):
        return True
    if isinstance(e, Compound) and e.op == "max":
        return any(_ref_nonneg(a) for a in e.args)
    if isinstance(e, Compound):
        return all(_ref_nonneg(c) for c in e.args)
    return False


def _ref_evaluate(e: expr.BoundExpr, v: dict[str, int]) -> int | None:
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, SymConst):
        return v[e.name]
    if isinstance(e, expr.Undefined):
        return None
    if e.op == "*":
        acc = 1
        for f in e.args:
            x = _ref_evaluate(f, v)
            if x is None:
                return None
            acc *= x
        return acc
    vals = [_ref_evaluate(c, v) for c in e.args]
    if None in vals:
        return None
    return sum(vals) if e.op == "+" else max(vals) if e.op == "max" else min(vals)


def _random_dag(rng: random.Random, size: int) -> list[expr.BoundExpr]:
    """`size` expressions built through the constructors, each from earlier
    ones, so that later expressions reuse subterms many times over."""
    pool: list[expr.BoundExpr] = [SymConst(c) for c in _CONSTS]
    pool += [IntConst(rng.randint(-2, 3)) for _ in range(2)]
    if rng.random() < 0.2:
        pool.append(UNDEFINED)
    for _ in range(size):
        ctor = rng.choice([add, mul, maximum, minimum])
        # favour recent entries: deep chains with wide sharing
        args = [pool[max(0, len(pool) - 1 - int(rng.expovariate(0.4)))]
                for _ in range(rng.randint(1, 3))]
        pool.append(ctor(*args))
    return pool


def test_stored_fields_match_recursive_definitions():
    rng = random.Random(4242)
    built = 0
    for _ in range(60):
        size = rng.randint(5, 14)
        pool = _random_dag(rng, size)
        v = {c: rng.randint(0, 5) for c in _CONSTS}
        for e in pool:
            assert str(e) == _ref_str(e)
            assert expr.is_provably_nonneg(e) == _ref_nonneg(e)
            assert evaluate(e, v) == _ref_evaluate(e, v)
        built += size
    assert built >= 500


def test_hand_built_nodes_evaluate_like_the_tree():
    # a product stops at its first undefined factor, so a missing constant
    # after it is never looked up; a sum evaluates every term
    assert evaluate(Compound("*", (UNDEFINED, SymConst("x"))), {}) is None
    with pytest.raises(expr.EvaluationError, match="'x'"):
        evaluate(Compound("+", (UNDEFINED, SymConst("x"))), {})
    with pytest.raises(expr.EvaluationError, match="'m1'"):
        evaluate(Compound("+", (Compound("max", (M1, M2)), SymConst("x"))), {})
    with pytest.raises(ValueError, match="unknown operator '-'"):
        Compound("-", (N, M1))
    rng = random.Random(31)
    for _ in range(500):
        e = _random_expr(rng, rng.randint(1, 4))
        v = {c: rng.randint(0, 9) for c in _CONSTS}
        assert str(e) == _ref_str(e)
        assert expr.is_provably_nonneg(e) == _ref_nonneg(e)
        assert evaluate(e, v) == _ref_evaluate(e, v)


def test_equality_and_hash_are_structural():
    a = add(mul(N, maximum(M1, M2)), mul(2, N), 1)
    b = add(1, mul(maximum(M2, M1), N), mul(N, 2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # a hand-built node that prints like a leaf is still a different node
    assert str(Compound("+", (N,))) == "n"
    assert Compound("+", (N,)) != N and N != Compound("+", (N,))
    assert Compound("max", (N,)) != Compound("min", (N,))
    assert Compound("+", (N, M1)) != Compound("*", (N, M1))
    assert IntConst(2) != SymConst("2") and IntConst(2) == IntConst(2)
    assert N != "n" and UNDEFINED == expr.Undefined()
    # a leaf's hash is that of its field tuple, stored when it is built;
    # a Compound's is the hash of its operand tuple
    assert hash(a) == hash((a.args,)) and hash(N) == hash(("n",))
    # independent builds of a DAG with heavy sharing (each level uses the
    # one below three times, so the printed form triples per level)
    x, y = N, SymConst("n")
    for _ in range(9):
        x, y = maximum(add(x, 1), mul(x, x)), maximum(add(y, 1), mul(y, y))
    assert x == y and x != maximum(add(y, 2), mul(y, y))


# ---------------------------------------------------------------------------
# like terms in a sum
# ---------------------------------------------------------------------------

def test_a_term_nothing_merged_with_is_kept_as_the_same_node():
    big = mul(*[N] * 20)
    terms = [big, mul(3, M1, M2), mul(-2, N, SymConst("(l-i)")), maximum(N, M2), M1]
    s = add(add(M2, 1), *terms)  # a nested sum's terms go in too
    assert len(s.args) == len(terms) + 2
    assert all(any(a is t for a in s.args) for t in [*terms, M2])
    # a merge rebuilds only the terms whose coefficient changed
    s = add(big, mul(2, M1), M1, N)
    assert str(s) == "3*m1 + n + " + "*".join(["n"] * 20)
    assert s.args[1] is N and s.args[2] is big


def _ref_coeffs(flat: list[expr.BoundExpr]) -> dict[tuple, int]:
    """The coefficient of each like-term key by the earlier rule: the key of
    a term is the tuple of its non-integer factors."""
    coeffs: dict[tuple, int] = {}
    for t in flat:
        if isinstance(t, IntConst):
            c, key = t.value, ()
        elif isinstance(t, Compound) and t.op == "*":
            c, rest = expr._split_ints(t.args)
            key = tuple(rest)
        else:
            c, key = 1, (t,)
        coeffs[key] = coeffs.get(key, 0) + c
    return coeffs


def _ref_sum(terms: list[expr.BoundExpr]) -> expr.BoundExpr:
    """Like terms collected by the earlier rule (the reference), which
    rebuilds every term through `_mk_product`."""
    flat = expr._flatten(terms, "+")
    if flat is None:
        return UNDEFINED
    coeffs = _ref_coeffs(flat)
    const = coeffs.pop((), 0)
    out = [expr._mk_product(c, list(key)) for key, c in coeffs.items() if c != 0]
    if const != 0 or not out:
        out.append(IntConst(const))
    if len(out) == 1:
        return out[0]
    out.sort(key=str)
    return Compound("+", tuple(out))


def test_sums_collect_like_terms_as_the_reference_does():
    rng = random.Random(2026)
    merged = cancelled = 0
    for _ in range(300):
        pool = _random_dag(rng, rng.randint(3, 10))
        pool += [SymConst("(l-i)"), SymConst("_k"), add(N, M1)]
        # products with and without an integer coefficient over shared parts
        for _ in range(4):
            part = mul(*rng.choices(pool, k=rng.randint(1, 3)))
            pool += [part, mul(rng.choice([-3, -2, -1, 2, 3]), part)]
        terms = rng.choices(pool, k=rng.randint(1, 8))
        if rng.random() < 0.3:  # a term and its negation
            t = rng.choice(pool)
            terms += [t, mul(-1, t)]
        got, want = add(*terms), _ref_sum(terms)
        assert got == want and str(got) == str(want)
        flat = expr._flatten(terms, "+")
        if flat is not None:
            coeffs = _ref_coeffs([t for t in flat if not isinstance(t, IntConst)])
            merged += len(coeffs) < len(flat) - sum(isinstance(t, IntConst) for t in flat)
            cancelled += 0 in coeffs.values()
    assert merged > 100 and cancelled > 30


def _deep_chain(depth: int) -> expr.BoundExpr:
    e = N
    for _ in range(depth):
        e = add(mul(e, N), 1)
    return e


def test_deep_expressions_do_not_recurse():
    start = time.perf_counter()
    e, f = _deep_chain(2000), _deep_chain(2000)
    text = "1 + n*n"
    for _ in range(1999):
        text = "(" + text + ")*n + 1"
    assert str(e) == text
    assert hash(e) == hash(f) and e == f and e is not f
    assert e != _deep_chain(1999)
    assert evaluate(e, {"n": 1}) == 2001
    assert evaluate(e, {"n": 2}) == 3 * 2 ** 2000 - 1
    assert expr.is_provably_nonneg(e)
    assert time.perf_counter() - start < 2.0


def test_deep_expressions_read_back():
    e = _deep_chain(2000)
    start = time.perf_counter()
    back = parse_expr(str(e))
    assert back == e and str(back) == str(e) and hash(back) == hash(e)
    assert repr(e) == f"<Compound '+': {e}>"
    assert time.perf_counter() - start < 2.0


def _analyzed_programs():
    """Every tests/data program (example3.prog abstracted), prognest(2..5)
    and 100 seeded random DCPs of up to 6 locations."""
    progs = [parse_dcp(p.read_text()) for p in sorted(DATA.glob("*.dcp"))]
    texts = [(DATA / "example3.prog").read_text()]
    texts += [families().prognest(k).text for k in range(2, 6)]
    progs += [abstract_program(parse_program(text)).dcp for text in texts]
    rng, size = random.Random(1019), len(progs)
    while len(progs) < size + 100:
        try:
            progs.append(parse_dcp(_random_dcp_text(
                rng, locations=(1, 6), variables=(1, 4), transitions=(1, 10),
                omit=0.1)))
        except DcpError:
            continue
    return progs


def test_computed_bounds_read_back():
    # the shapes the engine makes, such as min(1, X) factors and dropped
    # max(..., 0), print in a form that parses to the same normal form
    checked = 0
    for d in _analyzed_programs():
        for mode in AnalysisMode:
            report = Analysis(d, mode).report()
            for b in [*report.tb.values(), *report.vb.values(), report.complexity]:
                back = parse_expr(str(b))
                assert back == b and str(back) == str(b), str(b)
                checked += 1
    assert checked > 2500
