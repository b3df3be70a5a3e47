"""Exact Laurent-polynomial arithmetic in the formal deformation phase q.

A :class:`LaurentScalar` is a finite sum ``sum_k c_k q^k`` with exact
rational coefficients, held as integer numerators over one common
denominator, and integer (possibly negative) exponents.  The
symbol q stands for the phase ``exp(i*2*pi/(n+1))``; it is kept formal so
that identity checks are exact zero tests, and is specialized to a root of
unity only at evaluation time, from the table ``GentileRep.roots``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from ._record import Record
from .errors import OutOfRange


class Terms(Record):
    """A finite sum of coefficient x key: the record ``_terms``, a map
    with no zero coefficient, which is a precondition of construction.

    Sums keep self's keys first, then the other operand's new keys, in
    their order; a product's keys combine by ``+`` (exponent addition for
    :class:`LaurentScalar`, word concatenation for words) with the outer
    loop over self.  Only :class:`LaurentScalar` is evaluated in this
    order, so its key order fixes floating-point bits; ``QuotientPoly``
    sorts its keys and exponents first.
    """
    __slots__ = _fields = ("_terms",)

    @classmethod
    def collect(cls, pairs):
        """Sum of (key, coefficient) pairs, keys in first-seen order."""
        out = {}
        for k, c in pairs:
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return cls({k: c for k, c in out.items() if c})

    @property
    def terms(self):
        return dict(self._terms)

    def __bool__(self):
        return bool(self._terms)

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

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.collect((k1 + k2, c1 * c2)
                            for k1, c1 in self._terms.items()
                            for k2, c2 in other._terms.items())

    def scale(self, s):
        """Every coefficient multiplied by the nonzero ``s`` on the left."""
        return type(self)({k: s * c for k, c in self._terms.items()})


class LaurentScalar(Terms):
    """``sum_k (_terms[k] / _den) q^k``: integer numerators over one
    positive common denominator.

    The form is canonical: ``gcd(_den, *numerators) == 1`` and zero is
    ``{}`` over 1, so equal values have equal fields.  Arithmetic runs on
    ``int`` and reduces once per result; keys keep the order documented
    on :class:`Terms`.
    """
    __slots__ = ("_den",)
    _fields = ("_terms", "_den")

    @classmethod
    def _raw(cls, nums: dict, den: int) -> "LaurentScalar":
        """Nonzero numerators over ``den`` already in canonical form."""
        s = _new(cls)
        _set_terms(s, nums)
        _set_den(s, den)
        return s

    @classmethod
    def _reduced(cls, nums: dict, den: int) -> "LaurentScalar":
        """Numerators over ``den > 0``, zeros dropped, in lowest terms."""
        nums = {k: c for k, c in nums.items() if c}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: c // g for k, c in nums.items()}
        return cls._raw(nums, den)

    @property
    def terms(self):
        """Exponent -> ``Fraction``, in key order."""
        den = self._den
        return {k: Fraction(c, den) for k, c in self._terms.items()}

    @classmethod
    def from_rational(cls, value) -> "LaurentScalar":
        f = Fraction(value)
        return cls({0: f.numerator} if f else {}, f.denominator)

    @classmethod
    def q_power(cls, k: int) -> "LaurentScalar":
        return cls._raw({k: 1}, 1)

    def __hash__(self):
        # equal to the hash of the exponent -> Fraction map
        return hash(frozenset(self.terms.items()))

    def _combine(self, other, sign: int):
        """self + sign * other."""
        d1, d2 = self._den, other._den
        den = lcm(d1, d2)
        m1, m2 = den // d1, sign * (den // d2)
        out = {k: c * m1 for k, c in self._terms.items()}
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c * m2
        return self._reduced(out, den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()}, self._den)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = {}
        right = other._terms.items()
        for k1, c1 in self._terms.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return self._reduced(out, self._den * other._den)

    def scale(self, s: int):
        """Every coefficient multiplied by the nonzero ``int`` ``s``; the
        one caller, the quotient product, passes the factors of ``_shift``."""
        # gcd(_den, numerators) is 1, so only s can share a factor
        g = gcd(self._den, s)
        m = s // g
        return self._raw({k: c * m for k, c in self._terms.items()},
                         self._den // g)

    def __pow__(self, exponent: int):
        """``self ** exponent`` for an ``int`` exponent >= 0."""
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def _power_bits(self) -> int:
        """max(ceil(log2 sum |numerators|), ceil(log2 den)): each factor of
        a power of self adds at most this many bits to its numerators and
        to its denominator."""
        total = sum(map(abs, self._terms.values()))
        return max(max(total - 1, 0).bit_length(),
                   (self._den - 1).bit_length())

    def eval_at(self, roots) -> complex:
        """Numeric value at the root of unity whose powers q^0 .. q^n are
        ``roots`` (``GentileRep.roots``).

        Each exponent k is reduced mod n+1 as an int, so q^k is a table
        entry for any k; ``c / _den`` is correctly rounded, so each
        coefficient is the float of its exact value, and one beyond float
        range raises OutOfRange.
        """
        if not self._terms:
            return 0j
        den, m = self._den, len(roots)
        try:
            return sum(complex(c / den) * roots[k % m]
                       for k, c in self._terms.items())
        except OverflowError:
            raise OutOfRange("a coefficient is beyond float range, so it "
                             "cannot be evaluated") from None

    def subs_unit(self, sign: int) -> Fraction:
        """Exact value at q = +1 or q = -1."""
        total = sum(c if (sign == 1 or k % 2 == 0) else -c
                    for k, c in self._terms.items())
        return Fraction(total, self._den)

    def __repr__(self):
        if not self._terms:
            return "0"
        coeffs = self.terms
        parts = []
        for k in sorted(coeffs):
            v = coeffs[k]
            if k == 0:
                parts.append(str(v))
            elif k == 1:
                parts.append(f"{v}*q" if v != 1 else "q")
            else:
                parts.append(f"{v}*q^{k}" if v != 1 else f"q^{k}")
        return " + ".join(parts)


# _raw writes through the slots' own setters, bound once: Record refuses
# assignment, and these cost less per result than object.__setattr__
_new = object.__new__
_set_terms, _set_den = Terms._terms.__set__, LaurentScalar._den.__set__

ZERO = LaurentScalar({}, 1)
ONE = LaurentScalar({0: 1}, 1)
Q = LaurentScalar({1: 1}, 1)
QINV = LaurentScalar({-1: 1}, 1)


def q_integer(k: int) -> LaurentScalar:
    """The q-integer 1 + q + ... + q^(k-1)."""
    return LaurentScalar({j: 1 for j in range(k)}, 1)
