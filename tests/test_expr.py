"""Bound-expression normalization, evaluation, printing, parsing."""

import random
import time

import pytest

from dcbound import expr
from dcbound.expr import (
    UNDEFINED,
    IntConst,
    Max,
    Min,
    Product,
    Sum,
    SymConst,
    add,
    evaluate,
    maximum,
    minimum,
    mul,
    parse_expr,
    to_str,
)

N = SymConst("n")
M1 = SymConst("m1")
M2 = SymConst("m2")


def test_constant_folding_and_flattening():
    # n + (n + 0) collapses to one term with coefficient 2
    e = add(N, add(N, IntConst(0)))
    assert e == Product((IntConst(2), N))
    assert to_str(e) == "2*n"


def test_max_set_semantics():
    e = maximum(maximum(M1, M2), maximum(M2, M1))
    assert e == Max((M1, M2))
    assert to_str(e) == "max(m1,m2)"


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
    assert to_str(add(mul(N, N), mul(2, N))) == "2*n + n*n"
    assert to_str(add(N, mul(N, N))) == "n + n*n"
    assert to_str(add(N, mul(2, N), maximum(M1, M2))) == "3*n + max(m1,m2)"


def test_sum_inside_product_parenthesized():
    e = mul(N, add(N, IntConst(1)))
    assert to_str(e) == "(1 + n)*n"
    assert parse_expr(to_str(e)) == e


def test_max_zero_dropped_for_nonneg():
    assert maximum(N, 0) == N
    assert maximum(add(mul(2, N), maximum(M1, M2)), 0) == add(mul(2, N), maximum(M1, M2))
    # not provably nonnegative: keep the max
    e = maximum(add(N, IntConst(-1)), 0)
    assert isinstance(e, Max)
    assert to_str(e) == "max(-1 + n,0)"


def test_min_one_factor_collapses():
    # min(1, n) * n == n over the naturals
    assert mul(minimum(1, N), N) == N
    assert to_str(add(mul(minimum(1, N), N), 0)) == "n"
    # without the shared factor the min survives
    assert to_str(mul(minimum(1, N), M1)) == "m1*min(1,n)"


def test_int_folding_in_max_min():
    assert maximum(IntConst(2), IntConst(5)) == IntConst(5)
    assert minimum(IntConst(2), IntConst(5)) == IntConst(2)
    assert to_str(minimum(1, N)) == "min(1,n)"


def test_mul_by_zero():
    assert mul(0, N) == IntConst(0)
    assert add(mul(0, N), 0) == IntConst(0)


def test_parse_round_trip_golden():
    for text in ["2*n", "n + n*n", "2*n + max(m1,m2)", "min(1,n)", "undef",
                 "max(-1 + n,0)", "n*n*n", "-1 + n", "max(m1,m2,0)"]:
        e = parse_expr(text)
        assert parse_expr(to_str(e)) == e


def test_parse_errors():
    for bad in ["", "n +", "max(n)", "2 ** n", "n $ 1", "(n", "n)"]:
        with pytest.raises(ValueError):
            parse_expr(bad)


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
        assert parse_expr(to_str(e)) == e, text
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
    cls = rng.choice([Sum, Product, Max, Min])
    width = rng.randint(1, 3) if cls in (Sum, Product) else rng.randint(1, 3)
    return cls(tuple(_random_expr(rng, depth - 1) for _ in range(width)))


_CONSTRUCTOR = {Sum: add, Product: mul, Max: maximum, Min: minimum}


def _children(e: expr.BoundExpr) -> tuple[expr.BoundExpr, ...]:
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, (Max, Min)):
        return e.args
    return ()


def _normalize(e: expr.BoundExpr) -> expr.BoundExpr:
    """The normal form of a tree built by hand from the node classes: each
    node's normalized operands go through the constructor's normalization
    (the former `expr.normalize`, kept here to test the constructors)."""
    if isinstance(e, Sum):
        return expr._norm_sum([_normalize(t) for t in e.terms])
    if isinstance(e, Product):
        return expr._norm_product([_normalize(f) for f in e.factors])
    if isinstance(e, (Max, Min)):
        return expr._norm_maxmin([_normalize(a) for a in e.args], type(e))
    return e


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
            children = _children(node)
            if children:
                ctor = _CONSTRUCTOR[type(node)]
                assert ctor(*map(_normalize, children)) == _normalize(node)
                stack.extend(children)


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(500):
        e = _normalize(_random_expr(rng, rng.randint(1, 4)))
        assert parse_expr(to_str(e)) == e


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

def _ref_to_str(e: expr.BoundExpr) -> str:
    """Printing as a recursive walk of the tree (the definition)."""
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, SymConst):
        return e.name
    if isinstance(e, expr.Undefined):
        return "undef"
    if isinstance(e, Sum):
        return " + ".join(_ref_to_str(t) for t in e.terms)
    if isinstance(e, Product):
        return "*".join("(" + _ref_to_str(f) + ")" if isinstance(f, Sum)
                        else _ref_to_str(f) for f in e.factors)
    if isinstance(e, Max):
        return "max(" + ",".join(_ref_to_str(a) for a in e.args) + ")"
    return "min(" + ",".join(_ref_to_str(a) for a in e.args) + ")"


def _ref_nonneg(e: expr.BoundExpr) -> bool:
    if isinstance(e, IntConst):
        return e.value >= 0
    if isinstance(e, SymConst):
        return True
    if isinstance(e, (Sum, Product, Min)):
        return all(_ref_nonneg(c) for c in _children(e))
    if isinstance(e, Max):
        return any(_ref_nonneg(a) for a in e.args)
    return False


def _ref_evaluate(e: expr.BoundExpr, v: dict[str, int]) -> int | None:
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, SymConst):
        return v[e.name]
    if isinstance(e, expr.Undefined):
        return None
    if isinstance(e, Product):
        acc = 1
        for f in e.factors:
            x = _ref_evaluate(f, v)
            if x is None:
                return None
            acc *= x
        return acc
    vals = [_ref_evaluate(c, v) for c in _children(e)]
    if None in vals:
        return None
    return sum(vals) if isinstance(e, Sum) else max(vals) if isinstance(e, Max) else min(vals)


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
            assert str(e) == to_str(e) == _ref_to_str(e)
            assert expr.is_provably_nonneg(e) == _ref_nonneg(e)
            assert evaluate(e, v) == _ref_evaluate(e, v)
        built += size
    assert built >= 500


def test_hand_built_nodes_evaluate_like_the_tree():
    # a product stops at its first undefined factor, so a missing constant
    # after it is never looked up; a sum evaluates every term
    assert evaluate(Product((UNDEFINED, SymConst("x"))), {}) is None
    with pytest.raises(expr.EvaluationError, match="'x'"):
        evaluate(Sum((UNDEFINED, SymConst("x"))), {})
    with pytest.raises(expr.EvaluationError, match="'m1'"):
        evaluate(Sum((Max((M1, M2)), SymConst("x"))), {})
    rng = random.Random(31)
    for _ in range(500):
        e = _random_expr(rng, rng.randint(1, 4))
        v = {c: rng.randint(0, 9) for c in _CONSTS}
        assert str(e) == _ref_to_str(e)
        assert expr.is_provably_nonneg(e) == _ref_nonneg(e)
        assert evaluate(e, v) == _ref_evaluate(e, v)


def test_equality_and_hash_are_structural():
    a = add(mul(N, maximum(M1, M2)), mul(2, N), 1)
    b = add(1, mul(maximum(M2, M1), N), mul(N, 2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # a hand-built node that prints like a leaf is still a different node
    assert str(Sum((N,))) == "n"
    assert Sum((N,)) != N and N != Sum((N,))
    assert Max((N,)) != Min((N,))
    assert Sum((N, M1)) != Product((N, M1))
    assert IntConst(2) != SymConst("2") and IntConst(2) == IntConst(2)
    assert N != "n" and UNDEFINED == expr.Undefined()
    # the hash is the frozen dataclass's: the hash of the field tuple
    assert hash(a) == hash((a.terms,)) and hash(N) == hash(("n",))
    # independent builds of a DAG with heavy sharing (each level uses the
    # one below three times, so the printed form triples per level)
    x, y = N, SymConst("n")
    for _ in range(9):
        x, y = maximum(add(x, 1), mul(x, x)), maximum(add(y, 1), mul(y, y))
    assert x == y and x != maximum(add(y, 2), mul(y, y))


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
    assert repr(e) == f"<Sum {e}>"
    assert time.perf_counter() - start < 2.0
