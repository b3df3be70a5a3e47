"""Operator-expression syntax trees.

Nodes are immutable records (:mod:`gentile._record`) compared and hashed
by exact type and fields.  Products are binary; long products are
built by left folds.  A :class:`ProductSum` carries a tuple of operand
expressions and denotes the sum of their products over all orderings,
or over the cyclic rotations if its ``cyclic`` flag is set.  A
:class:`RenameSum`, built by :func:`perm_sum` / :func:`cyc_sum`,
denotes the sum of an arbitrary body over the permutations or, by the
same flag, the rotations of its generator names; the body is stored
once.  :func:`fold` maps a tree into any :class:`Algebra` (free
polynomials, quotient normal forms, matrices).
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations
from operator import add

from .._record import Record
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


class Scal(Expr):
    __slots__ = _fields = ("value",)


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")


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


class ProductSum(Expr):
    """Sum of the product of ``operands`` over all their orderings (or, if
    ``cyclic``, their rotations)."""
    __slots__ = _fields = ("operands", "cyclic")


class RenameSum(Expr):
    """Sum of ``body`` over the permutations (or, if ``cyclic``, the
    rotations) of its generator names ``symbols``."""
    __slots__ = _fields = ("body", "symbols", "cyclic")


def product(factors) -> Expr:
    factors = list(factors)
    return reduce(Mul, factors) if factors else Scal(ONE)


def _children(e: Expr):
    """The child expressions of ``e``, in field order."""
    for v in e._values:
        if isinstance(v, Expr):
            yield v
        elif isinstance(v, tuple):
            yield from (x for x in v if isinstance(x, Expr))


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


def perm_sum(body: Expr, symbols) -> Expr:
    """Sum of ``body`` over all permutations of the named generators."""
    return RenameSum(body, tuple(symbols), False)


def cyc_sum(body: Expr, symbols) -> Expr:
    """Sum of ``body`` over all cyclic rotations of the named generators."""
    return RenameSum(body, tuple(symbols), True)


class Algebra(Record):
    """Where :func:`fold` sends a tree; its values must support + and -.

    ``gen`` maps a generator name to a value, ``scalar`` a LaurentScalar,
    ``mul`` is (x, y) -> x y, ``qscale`` x -> q x, and ``power`` (x, k) ->
    x^k, or None for repeated ``mul``.
    """
    __slots__ = _fields = ("gen", "scalar", "mul", "qscale", "power")


def _renamed(alg: Algebra, pairs) -> Algebra:
    """``alg`` with each generator name first renamed by (old, new) pairs."""
    to, gen = dict(pairs), alg.gen
    return Algebra(lambda name: gen(to.get(name, name)), alg.scalar, alg.mul,
                   alg.qscale, alg.power)


def fold(e: Expr, alg: Algebra):
    """Value of ``e`` in ``alg``; every derived node is defined here.

    ``[x,y]_n`` is ``x y - q (y x)``.  A product sum folds each operand
    once, multiplies each ordering left to right and adds the products
    left to right, starting from the first.  A renaming sum adds its
    body's values under each renaming of ``gen`` the same way.
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
    if isinstance(e, ProductSum):
        values = [fold(x, alg) for x in e.operands]
        orders = (_rotations if e.cyclic else permutations)(values)
        return reduce(add, (reduce(alg.mul, order) for order in orders))
    if isinstance(e, RenameSum):
        symbols = list(e.symbols)
        orders = (_rotations if e.cyclic else permutations)(symbols)
        return reduce(add, (fold(e.body, _renamed(alg, zip(symbols, order)))
                            for order in orders))
    raise TypeError(f"unknown node {type(e).__name__}")
