"""Bound-expression normalization, evaluation, printing, parsing."""

import random

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
    normalize,
    parse_expr,
    to_str,
)

N = SymConst("n")
M1 = SymConst("m1")
M2 = SymConst("m2")


def test_constant_folding_and_flattening():
    # n + (n + 0) collapses to one term with coefficient 2
    e = normalize(Sum((N, Sum((N, IntConst(0))))))
    assert e == Product((IntConst(2), N))
    assert to_str(e) == "2*n"


def test_max_set_semantics():
    e = normalize(Max((Max((M1, M2)), Max((M2, M1)))))
    assert e == Max((M1, M2))
    assert to_str(e) == "max(m1,m2)"


def test_undef_absorption():
    assert normalize(Product((N, UNDEFINED))) == UNDEFINED
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


def test_normalize_idempotent_and_semantics_preserved():
    rng = random.Random(12345)
    for _ in range(1000):
        e = _random_expr(rng, rng.randint(1, 4))
        ne = normalize(e)
        assert normalize(ne) == ne
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
                assert ctor(*map(normalize, children)) == normalize(node)
                stack.extend(children)


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(500):
        e = normalize(_random_expr(rng, rng.randint(1, 4)))
        assert parse_expr(to_str(e)) == e


def test_undef_absorption_random():
    rng = random.Random(7)
    for _ in range(200):
        args = [normalize(_random_expr(rng, 2)) for _ in range(rng.randint(1, 3))]
        args.insert(rng.randrange(len(args) + 1), UNDEFINED)
        ctor = rng.choice([add, mul, maximum, minimum])
        assert ctor(*args) == UNDEFINED
