"""Symbolic bound expressions over integers and named nonnegative constants.

Every bound the analyses produce is one of these expressions: a leaf
(IntConst, SymConst, UNDEFINED) or one Compound, an operator ("+", "*",
"max" or "min") applied to a tuple of operand expressions. Construction
goes through the smart constructors (add, mul, maximum, minimum) or
parse_expr, and only they normalize: they keep expressions in a canonical
normal form so that equal bounds print identically. Nested sums/products/
max/min are flattened, integer constants are folded, like terms are
collected, and argument lists are sorted by their printed form. The
undefined element absorbs every operator.

The constructors normalize one level only: each argument must be an int, a
leaf, or the result of a constructor or parse_expr. A Compound built by
hand is a valid expression, but not a normal one.

Like terms in a sum are matched by their coefficient-free part: the term
itself, or for a product with an integer factor the product of its other
factors. A term that no other term merged with goes into the sum as the
same node; only a part whose coefficient changed is rebuilt as a product.
The output is what rebuilding every term would give: product factors are
sorted, so two parts are equal exactly when their factor lists are, and a
normal term is the product that its coefficient and factors rebuild to.
So a product of k factors, none an integer, that nothing merges with
passes through a sum in a constant number of steps, not O(k).

Bounds reuse the bounds below them, so expressions are DAGs that share
subterms. Every Compound therefore stores its printed form, its hash and
whether it is provably nonnegative, each computed once, when the node is
built, from its operands' values. Printing and hashing read a field,
equality walks node pairs with an explicit stack, and evaluation visits
each shared node once; none of them recurses.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping

from dcbound.record import Frozen

__all__ = [
    "BoundExpr",
    "IntConst",
    "SymConst",
    "Compound",
    "Undefined",
    "UNDEFINED",
    "add",
    "mul",
    "maximum",
    "minimum",
    "evaluate",
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


class BoundExpr(Frozen):
    """Base class of the immutable nodes below.

    Every node answers `_str`, its printed form, and `_nonneg`, whether it
    is provably nonnegative: a leaf from its own value, a Compound from the
    values it stored when it was built. Its hash is the `_hash` it stores.
    """

    __slots__ = ()
    _str: str
    _nonneg: bool

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._str


class IntConst(BoundExpr):
    """An integer; its hash, that of (value,), is stored when it is built."""

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((value,)))

    @property
    def _str(self) -> str:  # type: ignore[override]
        return str(self.value)

    @property
    def _nonneg(self) -> bool:  # type: ignore[override]
        return self.value >= 0


class SymConst(BoundExpr):
    """A named constant; its hash, that of (name,), is stored when it is
    built."""

    _nonneg = True  # symbolic constants range over the naturals

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((name,)))

    @property
    def _str(self) -> str:  # type: ignore[override]
        return self.name


class Undefined(BoundExpr):
    _str = "undef"
    _nonneg = False
    _hash = hash(())


# the value of each operator, given the values of its operands
_FOLD = {"+": sum, "*": math.prod, "max": max, "min": min}


class Compound(BoundExpr):
    """`op` applied to `args`, plus the printed form, hash and sign that
    `__init__` stores, each computed from the operands' values. A max
    is nonnegative if any operand is, the other operators if all are. The
    hash is that of the operand tuple, never one that walks the DAG, so the
    order in which a set of expressions iterates does not depend on the
    stored values.
    """

    def __init__(self, op: str, args: tuple[BoundExpr, ...]):
        if op == "+":
            text = " + ".join([a._str for a in args])
        elif op == "*":
            text = "*".join([_factor_str(a) for a in args])
        elif op in ("max", "min"):
            text = op + "(" + ",".join([a._str for a in args]) + ")"
        else:
            raise ValueError(f"unknown operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_str", text)
        object.__setattr__(self, "_hash", hash((args,)))
        object.__setattr__(self, "_nonneg", any(a._nonneg for a in args)
                           if op == "max" else all(a._nonneg for a in args))

    __hash__ = BoundExpr.__hash__  # defining __eq__ would unset it

    def __repr__(self) -> str:  # a repr of the args would recurse
        return f"<Compound {self.op!r}: {self._str}>"

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
            if type(a) is not Compound:
                if a != b:  # leaves compare their value
                    return False
                continue
            ka, kb = a.args, b.args
            if a._hash != b._hash or a.op != b.op or len(ka) != len(kb):
                return False
            pair = (id(a), id(b))
            if pair not in seen:
                seen.add(pair)
                stack.extend(zip(ka, kb))
        return True


UNDEFINED = Undefined()

ZERO = IntConst(0)
ONE_EXPR = IntConst(1)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _factor_str(f: BoundExpr) -> str:
    # Sums need parentheses in factor position; everything else is atomic.
    if f.__class__ is Compound and f.op == "+":
        return "(" + f._str + ")"
    return f._str


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def is_provably_nonneg(e: BoundExpr) -> bool:
    """Syntactic nonnegativity: symbolic constants range over the naturals,
    so sums/products of them with nonnegative integer parts cannot be < 0."""
    return getattr(e, "_nonneg", False)


def _flatten(args: list[BoundExpr], op: str) -> list[BoundExpr] | None:
    """The operands with every nested `op` node replaced by its own
    operands, or None when one of them is undefined."""
    flat: list[BoundExpr] = []
    for a in args:
        if isinstance(a, Undefined):
            return None
        if a.__class__ is Compound and a.op == op:
            flat.extend(a.args)
        else:
            flat.append(a)
    return flat


def _split_ints(factors: Iterable[BoundExpr]) -> tuple[int, list[BoundExpr]]:
    """The product of the integer factors, and the other factors in order."""
    coeff = 1
    rest: list[BoundExpr] = []
    for f in factors:
        if isinstance(f, IntConst):
            coeff *= f.value
        else:
            rest.append(f)
    return coeff, rest


def _like_part(term: BoundExpr) -> tuple[int, BoundExpr]:
    """(integer coefficient, coefficient-free part) of a normalized term that
    is neither a sum nor an integer.

    A product has at most one integer factor. It prints as '-' or a digit,
    so sorting by printed form puts it after the factors that print with a
    leading '(' (sums, and names such as `(l-i)`) and before all others,
    which start with a letter or '_'. The search stops at the first of
    those others, so a product without a coefficient costs one step."""
    if term.__class__ is Compound and term.op == "*":
        args = term.args
        for i, f in enumerate(args):
            if f.__class__ is IntConst:
                rest = args[:i] + args[i + 1:]
                return f.value, rest[0] if len(rest) == 1 else Compound("*", rest)
            if not (f.__class__ is Compound and f.op == "+"
                    or f.__class__ is SymConst and f.name[:1] == "("):
                break
    return 1, term


def _mk_product(coeff: int, factors: list[BoundExpr]) -> BoundExpr:
    # takes over `factors`, which each caller builds afresh
    if coeff == 0 or not factors:
        return IntConst(coeff)
    if coeff != 1:
        factors.append(IntConst(coeff))
    factors.sort(key=_factor_str)  # order by the form factors print in
    if len(factors) == 1:
        return factors[0]
    return Compound("*", tuple(factors))


def _norm_sum(terms: list[BoundExpr]) -> BoundExpr:
    flat = _flatten(terms, "+")
    if flat is None:
        return UNDEFINED
    const = 0
    # coefficient-free part -> [coefficient, the term, or None once merged]
    like: dict[BoundExpr, list] = {}
    for t in flat:
        if t.__class__ is IntConst:
            const += t.value
            continue
        c, key = _like_part(t)
        entry = like.get(key)
        if entry is None:
            like[key] = [c, t]
        else:
            entry[0] += c
            entry[1] = None
    out = []
    for key, (c, t) in like.items():
        if t is not None:
            out.append(t)
        elif c != 0:
            out.append(_mk_product(c, list(key.args) if key.__class__ is Compound
                                   and key.op == "*" else [key]))
    if const != 0 or not out:
        out.append(IntConst(const))
    if len(out) == 1:
        return out[0]
    out.sort(key=str)
    return Compound("+", tuple(out))


def _norm_product(factors: list[BoundExpr]) -> BoundExpr:
    flat = _flatten(factors, "*")
    if flat is None:
        return UNDEFINED
    coeff, rest = _split_ints(flat)
    if coeff == 0:
        return ZERO
    return _mk_product(coeff, _drop_unit_min_factors(rest))


def _drop_unit_min_factors(factors: list[BoundExpr]) -> list[BoundExpr]:
    # min(1, X) * X == X pointwise when X is a natural: X=0 gives 0 on both
    # sides, X>=1 makes the min collapse to 1. One pass suffices: X is never
    # itself a min, since the constructors flatten nested mins, so dropping
    # one such factor never adds or removes the X of another.
    out = []
    for f in factors:
        if (f.__class__ is Compound and f.op == "min" and len(f.args) == 2
                and ONE_EXPR in f.args):
            other = f.args[0] if f.args[1] == ONE_EXPR else f.args[1]
            if other in factors and is_provably_nonneg(other):
                continue
        out.append(f)
    return out


def _norm_maxmin(args: list[BoundExpr], op: str) -> BoundExpr:
    flat = _flatten(args, op)
    if flat is None:
        return UNDEFINED
    ints = [a.value for a in flat if isinstance(a, IntConst)]
    out = list(dict.fromkeys([a for a in flat if not isinstance(a, IntConst)]))
    if ints:
        folded = _FOLD[op](ints)
        # max(e, c) == max(e) when e >= 0 >= c is guaranteed.
        if not (op == "max" and folded <= 0 and any(is_provably_nonneg(a) for a in out)):
            out.append(IntConst(folded))
    if len(out) == 1:
        return out[0]
    out.sort(key=str)
    return Compound(op, tuple(out))


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------

def _operands(name: str, args: tuple[BoundExpr | int, ...]) -> list[BoundExpr]:
    if not args:
        raise ValueError(f"{name}() needs at least one argument")
    return [IntConst(a) if isinstance(a, int) else a for a in args]


def add(*args: BoundExpr | int) -> BoundExpr:
    return _norm_sum(_operands("add", args))


def mul(*args: BoundExpr | int) -> BoundExpr:
    return _norm_product(_operands("mul", args))


def maximum(*args: BoundExpr | int) -> BoundExpr:
    return _norm_maxmin(_operands("maximum", args), "max")


def minimum(*args: BoundExpr | int) -> BoundExpr:
    return _norm_maxmin(_operands("minimum", args), "min")


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
    if e.__class__ is not Compound:
        return _leaf_value(e, valuation)
    memo: dict[int, int | None] = {}  # id(node) -> value; e keeps every node alive
    stack: list[tuple[Compound, list[int | None]]] = [(e, [])]
    while stack:
        node, vals = stack[-1]
        kids = node.args
        stop = node.op == "*"
        while len(vals) < len(kids) and not (stop and vals and vals[-1] is None):
            k = kids[len(vals)]
            if k.__class__ is not Compound:
                vals.append(_leaf_value(k, valuation))
            elif id(k) in memo:
                vals.append(memo[id(k)])
            else:
                stack.append((k, []))
                break
        else:
            stack.pop()
            memo[id(node)] = None if None in vals else _FOLD[node.op](vals)
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


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# expr   := term ('+' term)*
# term   := factor ('*' factor)*
# factor := INT | IDENT | 'max(' expr (',' expr)+ ')'
#         | 'min(' expr (',' expr)+ ')' | '(' expr ')' | 'undef'
#
# One regex splits the text into tokens before parsing starts: after blanks
# (space, tab, newline, carriage return) an integer with an optional '-', a
# word (it must start with a letter or '_') or one of + * ( ) , -- any other
# character is an error at its offset. Digits and letters are Unicode ones.

_TOKEN_RE = re.compile(r"[ \t\n\r]*(?:(-?\d+)|(\w+)|([^ \t\n\r]))")

_Token = tuple[str | None, str, int]  # (kind, text, offset); kind None ends input


def parse_int(text: str, error: str = "") -> int:
    """int() of `text`. Where int() fails on a decimal literal (blanks and
    one sign allowed) of more digits than Python converts, 4300 by default,
    the ValueError says "integer literal of N digits is too long"; on other
    text it says `error`, or what int() said. So an over-long number is
    never echoed digit by digit."""
    try:
        return int(text)
    except ValueError as exc:
        digits = text.strip()
        if digits[:1] in ("-", "+"):
            digits = digits[1:]
        if digits.isdecimal():
            raise ValueError(f"integer literal of {len(digits)} digits "
                             f"is too long") from None
        raise ValueError(error or str(exc)) from None


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        val, pos = m[group], m.start(group)
        if group == 1:
            kind = "INT"
        elif group == 2 and (val[0].isalpha() or val[0] == "_"):
            kind = "IDENT"
        elif group == 3 and val in "+*(),":
            kind = val
        else:
            raise ExprParseError(f"unexpected character {val[0]!r}", pos)
        toks.append((kind, val, pos))
    toks.append((None, "", len(text)))
    return toks


def parse_expr(text: str) -> BoundExpr:
    """Parse the canonical expression syntax; the result is normalized.

    Operator precedence parsing over an explicit stack of open groups: the
    top level, each '(' and each max/min call. A group holds the finished
    arguments (max/min only), the finished terms of the sum being read and
    the factors of its current term.
    """
    toks = _tokenize(text)
    i = 0

    def take(kind: str | None = None) -> _Token:
        nonlocal i
        t = toks[i]
        if t[0] is None:
            raise ExprParseError("unexpected end of input", t[2])
        if kind is not None and t[0] != kind:
            raise ExprParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        i += 1
        return t

    # (opening token or None, args, terms, factors)
    stack: list[tuple[_Token | None, list[BoundExpr],
                      list[BoundExpr], list[BoundExpr]]] = [(None, [], [], [])]
    while True:
        kind, val, pos = take()
        if kind == "INT":
            try:
                factor: BoundExpr = IntConst(parse_int(val))
            except ValueError as exc:
                raise ExprParseError(str(exc), pos) from None
        elif kind == "(":
            stack.append(((kind, val, pos), [], [], []))
            continue
        elif kind != "IDENT":
            raise ExprParseError(f"unexpected token {val!r}", pos)
        elif val == "undef":
            factor = UNDEFINED
        elif val in ("max", "min"):
            take("(")
            stack.append(((kind, val, pos), [], [], []))
            continue
        else:
            factor = SymConst(val)
        # close every group that this factor completes
        while True:
            opener, args, terms, factors = stack[-1]
            factors.append(factor)
            t = toks[i]
            if t[0] == "*":
                i += 1
                break
            terms.append(mul(*factors))
            factors.clear()
            if t[0] == "+":
                i += 1
                break
            group = add(*terms)
            terms.clear()
            if opener is None:
                if t[0] is not None:
                    raise ExprParseError(f"trailing input {t[1]!r}", t[2])
                return group
            if opener[0] == "(":
                take(")")
                stack.pop()
                factor = group
                continue
            args.append(group)
            t = take()
            if t[0] == ",":
                break
            if t[0] != ")":
                raise ExprParseError(f"expected ',' or ')', found {t[1]!r}", t[2])
            if len(args) < 2:
                raise ExprParseError(f"{opener[1]}() needs at least two arguments",
                                     opener[2])
            stack.pop()
            factor = maximum(*args) if opener[1] == "max" else minimum(*args)
