"""Operator-expression syntax trees.

Nodes are immutable records (:mod:`gentile._record`) compared and hashed
by exact type and fields.  Products are binary; long products are
built by left folds.  Permutation/cyclic sum nodes carry a tuple of
operand expressions and denote the sum of products over all (cyclic)
orderings; sums over permuted *arguments of an arbitrary body* are built
with :func:`perm_sum` / :func:`cyc_sum`, which substitute explicitly.
:func:`fold` maps a tree into any :class:`Algebra` (free polynomials,
quotient normal forms, matrices).
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations
from operator import add

from .._record import Record, _setattr
from ..laurent import ONE, LaurentScalar

DEFAULT_ALPHABET = frozenset(
    {f"u{i}" for i in range(1, 10)} | {"u", "v", "w", "o",
                                       "adag", "a", "b", "bdag", "N"})


class Expr(Record):
    __slots__ = ()

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __sub__(self, other):
        return Sub(self, _coerce(other))


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, LaurentScalar):
        return Scal(x)
    return Scal(LaurentScalar.from_rational(x))


class Gen(Expr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _setattr(self, "name", name)


class Scal(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: LaurentScalar):
        _setattr(self, "value", value)


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _setattr(self, "left", left)
        _setattr(self, "right", right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")


class NBracket(_Binary):
    """Deformed bracket [x, y]_n = x y - q y x with q formal."""
    __slots__ = ()


class Commutator(_Binary):
    __slots__ = ()


class AntiCommutator(_Binary):
    __slots__ = ()


class _Operands(Expr):
    __slots__ = _fields = ("operands",)

    def __init__(self, operands: tuple):
        _setattr(self, "operands", operands)


class SumPerm(_Operands):
    """Sum of the product of the operands over all orderings."""
    __slots__ = ()


class SumCyc(_Operands):
    """Sum of the product of the operands over all cyclic rotations."""
    __slots__ = ()


def product(factors) -> Expr:
    factors = list(factors)
    return reduce(Mul, factors) if factors else Scal(ONE)


def _map_children(e: Expr, f) -> Expr:
    """A node of ``e``'s type with ``f`` applied to each child expression.

    A node's field values, in its class's field order, are also its
    constructor arguments.
    """
    return type(e)(*[f(v) if isinstance(v, Expr)
                     else tuple(map(f, v)) if isinstance(v, tuple) else v
                     for v in e._values])


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace generators by name; values are Expr or generator names."""
    if isinstance(e, Gen):
        repl = mapping.get(e.name, e)
        return Gen(repl) if isinstance(repl, str) else repl
    return _map_children(e, lambda x: substitute(x, mapping))


def _children(e: Expr):
    """The child expressions of ``e``, in field order."""
    for v in e._values:
        if isinstance(v, Expr):
            yield v
        elif isinstance(v, tuple):
            yield from v


def generators_of(e: Expr) -> set:
    names, stack = set(), [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Gen):
            names.add(x.name)
        else:
            stack.extend(_children(x))
    return names


def _rotations(items: list) -> list:
    return [items[k:] + items[:k] for k in range(len(items))]


def _sum_over(body: Expr, symbols, orders) -> Expr:
    symbols = list(symbols)
    return reduce(Add, [substitute(body, dict(zip(symbols, order)))
                        for order in orders(symbols)])


def perm_sum(body: Expr, symbols) -> Expr:
    """Sum of ``body`` over all permutations of the named generators."""
    return _sum_over(body, symbols, permutations)


def cyc_sum(body: Expr, symbols) -> Expr:
    """Sum of ``body`` over all cyclic rotations of the named generators."""
    return _sum_over(body, symbols, _rotations)


class Algebra(Record):
    """Where :func:`fold` sends a tree; its values must support + and -.

    ``gen`` maps a generator name to a value, ``scalar`` a LaurentScalar,
    ``mul`` is (x, y) -> x y, ``qscale`` x -> q x, and ``power`` (x, k) ->
    x^k, or None for repeated ``mul``.
    """
    __slots__ = _fields = ("gen", "scalar", "mul", "qscale", "power")


def fold(e: Expr, alg: Algebra):
    """Value of ``e`` in ``alg``; every derived node is defined here.

    ``[x,y]_n`` is ``x y - q (y x)``.  A permutation or cyclic sum folds
    each operand once, multiplies each ordering left to right and adds the
    products left to right, starting from the first.
    """
    if isinstance(e, Gen):
        return alg.gen(e.name)
    if isinstance(e, Scal):
        return alg.scalar(e.value)
    if isinstance(e, Add):
        return fold(e.left, alg) + fold(e.right, alg)
    if isinstance(e, Sub):
        return fold(e.left, alg) - fold(e.right, alg)
    if isinstance(e, Mul):
        return alg.mul(fold(e.left, alg), fold(e.right, alg))
    if isinstance(e, Pow):
        base = fold(e.base, alg)
        if alg.power is not None:
            return alg.power(base, e.exponent)
        return reduce(alg.mul, [base] * e.exponent, alg.scalar(ONE))
    if isinstance(e, (NBracket, Commutator, AntiCommutator)):
        x, y = fold(e.left, alg), fold(e.right, alg)
        xy, yx = alg.mul(x, y), alg.mul(y, x)
        if isinstance(e, NBracket):
            return xy - alg.qscale(yx)
        return xy - yx if isinstance(e, Commutator) else xy + yx
    if isinstance(e, (SumPerm, SumCyc)):
        values = [fold(x, alg) for x in e.operands]
        orders = (permutations(values) if isinstance(e, SumPerm)
                  else _rotations(values))
        return reduce(add, (reduce(alg.mul, order) for order in orders))
    raise TypeError(f"unknown node {type(e).__name__}")
