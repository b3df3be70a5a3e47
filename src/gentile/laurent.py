"""Exact Laurent-polynomial arithmetic in the formal deformation phase q.

A :class:`LaurentScalar` is a finite sum ``sum_k c_k q^k`` with exact
rational coefficients and integer (possibly negative) exponents.  The
symbol q stands for the phase ``exp(i*2*pi/(n+1))``; it is kept formal so
that identity checks are exact zero tests, and is specialized to a root of
unity only at evaluation time.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import chain

from .errors import OutOfRange


class Terms:
    """A finite sum of coefficient x key, zero coefficients dropped.

    Sums keep self's keys first, then the other operand's new keys, in
    their order; a product's keys combine by ``+`` (exponent addition for
    :class:`LaurentScalar`, word concatenation for words) with the outer
    loop over self.  Numeric evaluation sums in this insertion order, so
    the order fixes the floating-point bits.
    """
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def collect(cls, pairs):
        """Sum of (key, coefficient) pairs, keys in first-seen order."""
        out = {}
        for k, c in pairs:
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return cls(out)

    @property
    def terms(self):
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.collect(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.collect(chain(self._terms.items(),
                                  ((k, -c) for k, c in other._terms.items())))

    def __neg__(self):
        return type(self)({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.collect((k1 + k2, c1 * c2)
                            for k1, c1 in self._terms.items()
                            for k2, c2 in other._terms.items())

    def scale(self, s):
        """Every coefficient multiplied by ``s`` on the left."""
        return type(self)({k: s * c for k, c in self._terms.items()})


class LaurentScalar(Terms):
    __slots__ = ()

    coeffs = Terms.terms

    @classmethod
    def from_rational(cls, value) -> "LaurentScalar":
        return cls({0: Fraction(value)})

    @classmethod
    def q_power(cls, k: int) -> "LaurentScalar":
        return cls({k: Fraction(1)})

    def __pow__(self, exponent: int):
        if exponent < 0:
            if len(self._terms) == 1:
                ((k, v),) = self._terms.items()
                return LaurentScalar({k * exponent: v ** exponent})
            raise OutOfRange("negative powers only defined for monomials")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def eval_at(self, q: complex) -> complex:
        """Numeric value with q set to an arbitrary complex number."""
        if not self._terms:
            return 0j
        return sum(complex(v) * q ** k for k, v in self._terms.items())

    def subs_unit(self, sign: int) -> Fraction:
        """Exact value at q = +1 or q = -1."""
        if sign not in (1, -1):
            raise OutOfRange("sign must be +1 or -1")
        total = Fraction(0)
        for k, v in self._terms.items():
            total += v if (sign == 1 or k % 2 == 0) else -v
        return total

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms):
            v = self._terms[k]
            if k == 0:
                parts.append(str(v))
            elif k == 1:
                parts.append(f"{v}*q" if v != 1 else "q")
            else:
                parts.append(f"{v}*q^{k}" if v != 1 else f"q^{k}")
        return " + ".join(parts)


ZERO = LaurentScalar()
ONE = LaurentScalar({0: Fraction(1)})
Q = LaurentScalar({1: Fraction(1)})
QINV = LaurentScalar({-1: Fraction(1)})


def q_integer(k: int) -> LaurentScalar:
    """The q-integer 1 + q + ... + q^(k-1)."""
    return LaurentScalar({j: Fraction(1) for j in range(k)})


def laurent_eval(s: LaurentScalar, n: int) -> complex:
    """Specialize q to exp(i*2*pi/(n+1)) and evaluate.

    The zero polynomial evaluates to exactly 0; cancellation happens in
    exact arithmetic before any floating point enters.
    """
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    if s.is_zero:
        return 0j
    theta = 2.0 * cmath.pi / (n + 1)
    return sum(complex(v) * cmath.exp(1j * theta * k)
               for k, v in s.coeffs.items())
