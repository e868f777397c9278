"""Symbolic bound expressions over integers and named nonnegative constants.

Every bound the analyses produce is one of these expressions. Construction
goes through the smart constructors (add, mul, maximum, minimum) or
parse_expr, and only they normalize: they keep expressions in a canonical
normal form so that equal bounds print identically. Nested sums/products/
max/min are flattened, integer constants are folded, like terms are
collected, and argument lists are sorted by their printed form. The
undefined element absorbs every operator.

The constructors normalize one level only: each argument must be an int, a
leaf (IntConst, SymConst, UNDEFINED), or the result of a constructor or
parse_expr. A node built by hand from the node classes is a valid
expression, but not a normal one.

Bounds reuse the bounds below them, so expressions are DAGs that share
subterms. Every compound node therefore stores its printed form, its hash
and whether it is provably nonnegative, each computed once, when the node
is built, from its operands' values. Printing and hashing read a field,
equality walks node pairs with an explicit stack, and evaluation visits
each shared node once; none of them recurses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "BoundExpr",
    "IntConst",
    "SymConst",
    "Sum",
    "Product",
    "Max",
    "Min",
    "Undefined",
    "UNDEFINED",
    "add",
    "mul",
    "maximum",
    "minimum",
    "evaluate",
    "to_str",
    "parse_expr",
    "is_provably_nonneg",
    "EvaluationError",
    "ExprParseError",
]


class EvaluationError(ValueError):
    """A symbolic constant needed by evaluate() is missing from the valuation."""


class ExprParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class BoundExpr:
    """Base class; concrete nodes are the frozen dataclasses below.

    Every node answers `_str`, its printed form, and `_nonneg`, whether it
    is provably nonnegative: a leaf from its own value, a compound node from
    the values it stored when it was built.
    """

    __slots__ = ()
    _str: str
    _nonneg: bool

    def __str__(self) -> str:
        return self._str


@dataclass(frozen=True)
class IntConst(BoundExpr):
    value: int

    @property
    def _str(self) -> str:  # type: ignore[override]
        return str(self.value)

    @property
    def _nonneg(self) -> bool:  # type: ignore[override]
        return self.value >= 0


@dataclass(frozen=True)
class SymConst(BoundExpr):
    name: str
    _nonneg = True  # symbolic constants range over the naturals

    @property
    def _str(self) -> str:  # type: ignore[override]
        return self.name


@dataclass(frozen=True)
class Undefined(BoundExpr):
    _str = "undef"
    _nonneg = False


class _Compound(BoundExpr):
    """Sum, Product, Max and Min: a tuple of operands, plus the printed
    form, hash and sign that `__post_init__` stores, each computed from the
    operands' values. The hash is the one a plain frozen dataclass computes
    (the hash of its field tuple), so the order in which a set of
    expressions iterates does not depend on the stored values.
    """

    __slots__ = ()
    _hash: int

    def _store(self, text: str, operands: tuple[BoundExpr, ...], nonneg: bool) -> None:
        object.__setattr__(self, "_str", text)
        object.__setattr__(self, "_hash", hash((operands,)))
        object.__setattr__(self, "_nonneg", nonneg)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # the dataclass repr would recurse
        return f"<{type(self).__name__} {self._str}>"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BoundExpr):
            return NotImplemented
        stack: list[tuple[BoundExpr, BoundExpr]] = [(self, other)]
        seen: set[tuple[int, int]] = set()  # pairs already compared in a DAG
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if not isinstance(a, _Compound):
                if a != b:  # leaves compare their value
                    return False
                continue
            ka, kb = _children(a), _children(b)
            if a._hash != b._hash or len(ka) != len(kb):  # type: ignore[attr-defined]
                return False
            pair = (id(a), id(b))
            if pair not in seen:
                seen.add(pair)
                stack.extend(zip(ka, kb))
        return True


@dataclass(frozen=True, eq=False, repr=False)
class Sum(_Compound):
    terms: tuple[BoundExpr, ...]

    def __post_init__(self) -> None:
        terms = self.terms
        self._store(" + ".join([t._str for t in terms]), terms,
                    all(t._nonneg for t in terms))


@dataclass(frozen=True, eq=False, repr=False)
class Product(_Compound):
    factors: tuple[BoundExpr, ...]

    def __post_init__(self) -> None:
        factors = self.factors
        self._store("*".join([_factor_str(f) for f in factors]), factors,
                    all(f._nonneg for f in factors))


@dataclass(frozen=True, eq=False, repr=False)
class Max(_Compound):
    args: tuple[BoundExpr, ...]

    def __post_init__(self) -> None:
        args = self.args
        self._store("max(" + ",".join([a._str for a in args]) + ")", args,
                    any(a._nonneg for a in args))


@dataclass(frozen=True, eq=False, repr=False)
class Min(_Compound):
    args: tuple[BoundExpr, ...]

    def __post_init__(self) -> None:
        args = self.args
        self._store("min(" + ",".join([a._str for a in args]) + ")", args,
                    all(a._nonneg for a in args))


UNDEFINED = Undefined()

ZERO = IntConst(0)
ONE_EXPR = IntConst(1)


def _children(e: _Compound) -> tuple[BoundExpr, ...]:
    """The operands of a compound node."""
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    return e.args  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def to_str(e: BoundExpr) -> str:
    if not isinstance(e, BoundExpr):
        raise TypeError(f"not a BoundExpr: {e!r}")
    return e._str


def _factor_str(f: BoundExpr) -> str:
    # Sums need parentheses in factor position; everything else is atomic.
    if isinstance(f, Sum):
        return "(" + f._str + ")"
    return f._str


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def is_provably_nonneg(e: BoundExpr) -> bool:
    """Syntactic nonnegativity: symbolic constants range over the naturals,
    so sums/products of them with nonnegative integer parts cannot be < 0."""
    return getattr(e, "_nonneg", False)


def _sorted_by_print(items: Iterable[BoundExpr]) -> list[BoundExpr]:
    return sorted(items, key=to_str)


def _term_parts(term: BoundExpr) -> tuple[int, tuple[BoundExpr, ...]]:
    """Split a normalized non-sum term into (integer coefficient, factor key)."""
    if isinstance(term, IntConst):
        return term.value, ()
    if isinstance(term, Product):
        coeff = 1
        rest = []
        for f in term.factors:
            if isinstance(f, IntConst):
                coeff *= f.value
            else:
                rest.append(f)
        return coeff, tuple(rest)
    return 1, (term,)


def _mk_product(coeff: int, factors: list[BoundExpr]) -> BoundExpr:
    if coeff == 0 or not factors:
        return IntConst(coeff)
    parts = list(factors)
    if coeff != 1:
        parts.append(IntConst(coeff))
    parts.sort(key=_factor_str)  # order by the form factors print in
    if len(parts) == 1:
        return parts[0]
    return Product(tuple(parts))


def _norm_sum(terms: list[BoundExpr]) -> BoundExpr:
    flat: list[BoundExpr] = []
    for t in terms:
        if isinstance(t, Undefined):
            return UNDEFINED
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    coeffs: dict[tuple[BoundExpr, ...], int] = {}
    order: list[tuple[BoundExpr, ...]] = []
    for t in flat:
        c, key = _term_parts(t)
        if key not in coeffs:
            coeffs[key] = 0
            order.append(key)
        coeffs[key] += c
    out: list[BoundExpr] = []
    const = coeffs.pop((), 0)
    for key in order:
        if key not in coeffs:
            continue
        c = coeffs[key]
        if c == 0:
            continue
        out.append(_mk_product(c, list(key)))
    if const != 0 or not out:
        out.append(IntConst(const))
    out = _sorted_by_print(out)
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def _norm_product(factors: list[BoundExpr]) -> BoundExpr:
    flat: list[BoundExpr] = []
    for f in factors:
        if isinstance(f, Undefined):
            return UNDEFINED
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = 1
    rest: list[BoundExpr] = []
    for f in flat:
        if isinstance(f, IntConst):
            coeff *= f.value
        else:
            rest.append(f)
    if coeff == 0:
        return ZERO
    rest = _drop_unit_min_factors(rest)
    return _mk_product(coeff, rest)


def _drop_unit_min_factors(factors: list[BoundExpr]) -> list[BoundExpr]:
    # min(1, X) * X == X pointwise when X is a natural: X=0 gives 0 on both
    # sides, X>=1 makes the min collapse to 1.
    changed = True
    out = list(factors)
    while changed:
        changed = False
        for i, f in enumerate(out):
            if not (isinstance(f, Min) and len(f.args) == 2 and ONE_EXPR in f.args):
                continue
            other = f.args[0] if f.args[1] == ONE_EXPR else f.args[1]
            rest = out[:i] + out[i + 1:]
            if other in rest and is_provably_nonneg(other):
                out = rest
                changed = True
                break
    return out


def _norm_maxmin(args: list[BoundExpr], cls: type) -> BoundExpr:
    flat: list[BoundExpr] = []
    for a in args:
        if isinstance(a, Undefined):
            return UNDEFINED
        if isinstance(a, cls):
            flat.extend(a.args)  # type: ignore[attr-defined]
        else:
            flat.append(a)
    ints = [a.value for a in flat if isinstance(a, IntConst)]
    rest: list[BoundExpr] = []
    seen: set[BoundExpr] = set()
    for a in flat:
        if isinstance(a, IntConst) or a in seen:
            continue
        seen.add(a)
        rest.append(a)
    folded: int | None = None
    if ints:
        folded = max(ints) if cls is Max else min(ints)
    if cls is Max and folded is not None and folded <= 0 and any(
        is_provably_nonneg(a) for a in rest
    ):
        # max(e, c) == max(e) when e >= 0 >= c is guaranteed.
        folded = None
    out = list(rest)
    if folded is not None:
        out.append(IntConst(folded))
    if not out:
        return ZERO
    out = _sorted_by_print(out)
    if len(out) == 1:
        return out[0]
    return cls(tuple(out))


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------

def _coerce(x: BoundExpr | int) -> BoundExpr:
    if isinstance(x, int):
        return IntConst(x)
    return x


def add(*args: BoundExpr | int) -> BoundExpr:
    if not args:
        raise ValueError("add() needs at least one argument")
    return _norm_sum([_coerce(a) for a in args])


def mul(*args: BoundExpr | int) -> BoundExpr:
    if not args:
        raise ValueError("mul() needs at least one argument")
    return _norm_product([_coerce(a) for a in args])


def maximum(*args: BoundExpr | int) -> BoundExpr:
    if not args:
        raise ValueError("maximum() needs at least one argument")
    return _norm_maxmin([_coerce(a) for a in args], Max)


def minimum(*args: BoundExpr | int) -> BoundExpr:
    if not args:
        raise ValueError("minimum() needs at least one argument")
    return _norm_maxmin([_coerce(a) for a in args], Min)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(e: BoundExpr, valuation: Mapping[str, int]) -> int | None:
    """Evaluate under a total assignment of the symbolic constants.

    Returns None for the undefined element. Raises EvaluationError when a
    symbolic constant has no value. Operands are evaluated left to right,
    depth first, and a product stops at its first undefined factor; a node
    shared in the DAG is evaluated once.
    """
    if not isinstance(e, _Compound):
        return _leaf_value(e, valuation)
    memo: dict[int, int | None] = {}  # id(node) -> value; e keeps every node alive
    stack: list[tuple[BoundExpr, tuple[BoundExpr, ...], list[int | None]]] = [
        (e, _children(e), [])]
    while stack:
        node, kids, vals = stack[-1]
        stop = isinstance(node, Product)
        while len(vals) < len(kids) and not (stop and vals and vals[-1] is None):
            k = kids[len(vals)]
            if not isinstance(k, _Compound):
                vals.append(_leaf_value(k, valuation))
            elif id(k) in memo:
                vals.append(memo[id(k)])
            else:
                stack.append((k, _children(k), []))
                break
        else:
            stack.pop()
            memo[id(node)] = _combine(node, vals)
    return memo[id(e)]


def _leaf_value(e: BoundExpr, valuation: Mapping[str, int]) -> int | None:
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, SymConst):
        try:
            return valuation[e.name]
        except KeyError:
            raise EvaluationError(f"no value for symbolic constant {e.name!r}") from None
    if isinstance(e, Undefined):
        return None
    raise TypeError(f"not a BoundExpr: {e!r}")


def _combine(node: BoundExpr, vals: list[int | None]) -> int | None:
    """The value of a compound node, given the values of its operands."""
    if None in vals:
        return None
    if isinstance(node, Sum):
        return sum(vals)  # type: ignore[arg-type]
    if isinstance(node, Product):
        return math.prod(vals)  # type: ignore[arg-type]
    if isinstance(node, Max):
        return max(vals)  # type: ignore[type-var]
    return min(vals)  # type: ignore[type-var]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# expr   := term ('+' term)*
# term   := factor ('*' factor)*
# factor := INT | IDENT | 'max(' expr (',' expr)+ ')'
#         | 'min(' expr (',' expr)+ ')' | '(' expr ')' | 'undef'

_WS = " \t\n\r"


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch in _WS:
                i += 1
                continue
            if ch in "+*(),":
                self.toks.append((ch, ch, i))
                i += 1
                continue
            if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
                j = i + 1
                while j < n and text[j].isdecimal():
                    j += 1
                self.toks.append(("INT", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("IDENT", text[i:j], i))
                i = j
                continue
            raise ExprParseError(f"unexpected character {ch!r}", i)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise ExprParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return t

    def expect(self, kind: str) -> tuple[str, str, int]:
        t = self.next()
        if t[0] != kind:
            raise ExprParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t


def parse_expr(text: str) -> BoundExpr:
    """Parse the canonical expression syntax; the result is normalized.

    Operator precedence parsing over an explicit stack of open groups: the
    top level, each '(' and each max/min call. A group holds the finished
    arguments (max/min only), the finished terms of the sum being read and
    the factors of its current term.
    """
    toks = _Tokens(text)
    # (opening token or None, args, terms, factors)
    stack: list[tuple[tuple[str, str, int] | None, list[BoundExpr],
                      list[BoundExpr], list[BoundExpr]]] = [(None, [], [], [])]
    while True:
        kind, val, pos = toks.next()
        if kind == "INT":
            factor: BoundExpr = IntConst(int(val))
        elif kind == "(":
            stack.append(((kind, val, pos), [], [], []))
            continue
        elif kind != "IDENT":
            raise ExprParseError(f"unexpected token {val!r}", pos)
        elif val == "undef":
            factor = UNDEFINED
        elif val in ("max", "min"):
            toks.expect("(")
            stack.append(((kind, val, pos), [], [], []))
            continue
        else:
            factor = SymConst(val)
        # close every group that this factor completes
        while True:
            opener, args, terms, factors = stack[-1]
            factors.append(factor)
            t = toks.peek()
            if t is not None and t[0] == "*":
                toks.next()
                break
            terms.append(mul(*factors))
            factors.clear()
            if t is not None and t[0] == "+":
                toks.next()
                break
            group = add(*terms)
            terms.clear()
            if opener is None:
                if t is not None:
                    raise ExprParseError(f"trailing input {t[1]!r}", t[2])
                return group
            if opener[0] == "(":
                toks.expect(")")
                stack.pop()
                factor = group
                continue
            args.append(group)
            t = toks.next()
            if t[0] == ",":
                break
            if t[0] != ")":
                raise ExprParseError(f"expected ',' or ')', found {t[1]!r}", t[2])
            if len(args) < 2:
                raise ExprParseError(f"{opener[1]}() needs at least two arguments",
                                     opener[2])
            stack.pop()
            factor = maximum(*args) if opener[1] == "max" else minimum(*args)
