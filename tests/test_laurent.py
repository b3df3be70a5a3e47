"""Exact Laurent arithmetic: frozen oracles plus property-based ring laws."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import laurent_scalar
from gentile.errors import OutOfRange
from gentile.laurent import (ONE, Q, QINV, ZERO, LaurentScalar, Terms,
                             q_integer)


def roots_at(n):
    """q^0 .. q^n for q = exp(i*2*pi/(n+1)), the root of unity of
    occupation bound n, each power an exponential of its own."""
    return tuple(cmath.exp(2j * cmath.pi * j / (n + 1)) for j in range(n + 1))


# -- frozen oracle values ---------------------------------------------------


def test_zero_and_one():
    assert not ZERO
    assert ONE
    assert ONE.terms == {0: Fraction(1)}
    assert Q * QINV == ONE


def test_zero_coefficients_dropped():
    s = laurent_scalar({3: Fraction(0), 1: Fraction(2)})
    assert s.terms == {1: Fraction(2)}
    assert not (s - s)


def test_scalar_is_not_a_sparse_term_sum():
    # a scalar is numerators over one denominator, not a map of
    # coefficients: it has no Terms.collect, which built it from one field
    # and raised TypeError, and its scale takes an int
    assert not issubclass(LaurentScalar, Terms)
    assert not hasattr(LaurentScalar, "collect")
    assert LaurentScalar._fields == ("_terms", "_den")
    assert laurent_scalar({1: Fraction(1, 6)}).scale(4) \
        == laurent_scalar({1: Fraction(2, 3)})


def test_construction_takes_the_canonical_fields():
    # a record holds its fields as given: numerators over one denominator
    assert LaurentScalar({0: 1}, 1) == ONE
    assert LaurentScalar(_terms={}, _den=1) == ZERO
    assert laurent_scalar({-1: Fraction(1, 3), 2: 2}) \
        == LaurentScalar({-1: 1, 2: 6}, 3)
    for value, fields in [(0, ({}, 1)), ("0/5", ({}, 1)), (3, ({0: 3}, 1)),
                          (Fraction(-6, 4), ({0: -3}, 2)),
                          ("1/3", ({0: 1}, 3))]:
        s = LaurentScalar.from_rational(value)
        assert (s._terms, s._den) == fields
        _assert_canonical(s)
    with pytest.raises(TypeError, match=r"takes its fields \(_terms, _den\)"):
        LaurentScalar({0: 1})


def test_q_integer_oracle():
    # <3>_q = 1 + q + q^2, hand expansion of the geometric sum
    assert q_integer(3).terms == {0: 1, 1: 1, 2: 1}
    assert not q_integer(0)
    assert q_integer(1) == ONE


def test_q_integer_recursion():
    # <k+1> = 1 + q*<k>, the defining recursion of the q-integers
    for k in range(8):
        assert q_integer(k + 1) == ONE + Q * q_integer(k)


def test_pow_square_and_multiply():
    s = ONE + Q
    # (1+q)^3 = 1 + 3q + 3q^2 + q^3 by the binomial theorem
    assert (s ** 3).terms == {0: 1, 1: 3, 2: 3, 3: 1}
    assert s ** 0 == ONE


@pytest.mark.parametrize("s,bits", [
    (ZERO, 0), (ONE, 0), (QINV, 0), (laurent_scalar({0: 2}), 1),
    (laurent_scalar({3: Fraction(-3, 8)}), 3), (q_integer(5), 3),
    (laurent_scalar({-2: Fraction(-5, 3), 1: Fraction(7, 2)}), 5),
])
def test_power_bits_bound_every_power(s, bits):
    # sum |numerators| and the denominator of s^k are at most
    # 2^(k * _power_bits), so the parser can refuse a power before it is built
    assert s._power_bits() == bits
    for k in range(9):
        power = s ** k
        assert sum(map(abs, power._terms.values())) <= 2 ** (k * bits)
        assert power._den <= 2 ** (k * bits)


def test_subs_unit():
    s = ONE - Q  # 1 - q
    assert s.subs_unit(1) == 0
    assert s.subs_unit(-1) == 2


def test_laurent_eval_exact_zero():
    # cancellation happens exactly before floats: q - q evaluates to 0j
    assert (Q - Q).eval_at(roots_at(5)) == 0j


def test_laurent_eval_root_of_unity():
    # q = exp(i*2*pi/(n+1)); at n=3, q = i, so 1 + q^2 = 0
    value = (ONE + Q ** 2).eval_at(roots_at(3))
    assert abs(value) <= 1e-15
    assert abs(Q.eval_at(roots_at(3)) - 1j) <= 1e-15


@pytest.mark.parametrize("k", [-1, 3, 10 ** 15, -(10 ** 15) - 1, 2 ** 64 + 1,
                               10 ** 400],
                         ids=["minus-one", "three", "1e15", "minus-1e15",
                              "beyond-int64", "beyond-float-range"])
def test_q_exponent_reduced_exactly(k):
    # q^k is q^(k mod (n+1)) read from the table, for an exponent of any size
    for n in (1, 2, 3, 6):
        roots = roots_at(n)
        s = LaurentScalar.q_power(k)
        assert s.eval_at(roots) == roots[k % (n + 1)]
        assert (s * s).eval_at(roots) == roots[2 * k % (n + 1)]


@pytest.mark.parametrize("s", [LaurentScalar.from_rational(10 ** 400)],
                         ids=["coefficient"])
def test_evaluation_beyond_float_range_is_out_of_range(s):
    with pytest.raises(OutOfRange, match="beyond float range"):
        s.eval_at(roots_at(2))


# -- property-based ring laws -----------------------------------------------

_coeffs = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-10, max_value=10, max_denominator=7),
    max_size=5)
scalars = _coeffs.map(laurent_scalar)


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a  # coefficient ring is commutative
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert not (a - a)
    assert -(-a) == a


@settings(max_examples=100, deadline=None)
@given(scalars, scalars)
def test_subs_unit_is_ring_homomorphism(a, b):
    for sign in (1, -1):
        assert (a * b).subs_unit(sign) == a.subs_unit(sign) * b.subs_unit(sign)
        assert (a + b).subs_unit(sign) == a.subs_unit(sign) + b.subs_unit(sign)


@settings(max_examples=100, deadline=None)
@given(scalars, scalars, st.integers(min_value=1, max_value=6))
def test_eval_commutes_with_arithmetic(a, b, n):
    roots = roots_at(n)
    prod_val = (a * b).eval_at(roots)
    sep_val = a.eval_at(roots) * b.eval_at(roots)
    scale = max(1.0, abs(prod_val))
    assert abs(prod_val - sep_val) <= 1e-10 * scale


# -- the Fraction-coefficient arithmetic as a reference ---------------------


class _FractionScalar:
    """Exponent -> ``Fraction`` map: the Laurent arithmetic that integer
    numerators over one common denominator replaced, kept as a reference.

    Sums keep self's keys first; products loop over self on the outside.
    """

    def __init__(self, terms):
        self.terms = {k: Fraction(c) for k, c in terms.items() if c}

    @classmethod
    def collect(cls, pairs):
        out = {}
        for k, c in pairs:
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return cls(out)

    def __add__(self, other):
        return self.collect([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _FractionScalar({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        return self.collect((k1 + k2, c1 * c2)
                            for k1, c1 in self.terms.items()
                            for k2, c2 in other.terms.items())

    def scale(self, s):
        return _FractionScalar({k: s * c for k, c in self.terms.items()})

    def __pow__(self, exponent):
        result, base = _FractionScalar({0: 1}), self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def eval_at(self, roots):
        if not self.terms:
            return 0j
        return sum(complex(v) * roots[k % len(roots)]
                   for k, v in self.terms.items())

    def subs_unit(self, sign):
        return sum((v if sign == 1 or k % 2 == 0 else -v
                    for k, v in self.terms.items()), Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            v = self.terms[k]
            if k == 0:
                parts.append(str(v))
            elif k == 1:
                parts.append(f"{v}*q" if v != 1 else "q")
            else:
                parts.append(f"{v}*q^{k}" if v != 1 else f"q^{k}")
        return " + ".join(parts)


def _assert_canonical(s):
    assert s._den > 0
    assert math.gcd(s._den, *s._terms.values()) == 1
    assert all(type(c) is int and c for c in s._terms.values())
    if not s._terms:
        assert s._den == 1


def _assert_matches(s, ref, n):
    _assert_canonical(s)
    # same values in the same key order
    assert list(s.terms.items()) == list(ref.terms.items())
    assert s == laurent_scalar(ref.terms)
    assert hash(s) == hash(ref)
    assert repr(s) == repr(ref)
    for sign in (1, -1):
        assert s.subs_unit(sign) == ref.subs_unit(sign)
    # bit-equal floating-point values
    for roots in (roots_at(n), roots_at(2 * n + 1)):
        assert s.eval_at(roots) == ref.eval_at(roots)


_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=7)


@settings(max_examples=200, deadline=None)
@given(_coeffs, _coeffs,
       # scale's one caller passes a nonzero int
       st.integers(min_value=-6, max_value=6).filter(bool),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=-5, max_value=5),
       _fractions.filter(bool), st.integers(min_value=1, max_value=6))
def test_matches_fraction_reference(ta, tb, k, e, k0, c0, n):
    a, b = laurent_scalar(ta), laurent_scalar(tb)
    ra, rb = _FractionScalar(ta), _FractionScalar(tb)
    mono, rmono = laurent_scalar({k0: c0}), _FractionScalar({k0: c0})
    cases = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb),
             (-a, -ra), (a * b, ra * rb), (a.scale(k), ra.scale(k)),
             (a ** e, ra ** e), (mono * a, rmono * ra)]
    for s, ref in cases:
        _assert_matches(s, ref, n)
    assert (a == b) == (ra.terms == rb.terms)
    assert not (a - a) and (a - a)._den == 1
