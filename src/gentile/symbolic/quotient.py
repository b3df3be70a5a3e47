"""Normal ordering in the quotient algebra of adag, b, N.

The defining relations (q formal) are

    b adag - q adag b = 1,    N adag = adag (N + 1),    N b = b (N - 1).

Every element has a unique normal form, a sum of words adag^j b^k N^m;
a :class:`QuotientPoly` maps (j, k, m) triples to Laurent-scalar
coefficients.  The first relation is the Arik-Coon q-oscillator, whose
reordering formula (Katriel and Kibler, J. Phys. A 25 (1992) 2683)

    b^k adag^j = sum_r q^((k-r)(j-r)) [k r]_q [j r]_q [r]_q!
                       adag^(j-r) b^(k-r)

with Gaussian binomials [k r]_q and the q-integer [r]_q = 1 + ... + q^(r-1),
together with N^m adag^j b^k = adag^j b^k (N + j - k)^m, gives the product
of two normal-ordered words directly as a normal-ordered sum.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb
from operator import mul

import numpy as np

from .._record import _setattr
from ..errors import OutOfRange
from ..laurent import ONE, Q, LaurentScalar, Terms, q_integer
from ..rep import Bands, sweep_ladder
from .expr import Algebra, Expr, fold, generators_of

QUOTIENT_ALPHABET = frozenset({"adag", "b", "N"})


@lru_cache(maxsize=None)
def _q_factorial(r: int) -> LaurentScalar:
    """[r]_q! = [1]_q [2]_q ... [r]_q."""
    return ONE if r == 0 else _q_factorial(r - 1) * q_integer(r)


@lru_cache(maxsize=None)
def _gauss_binomial(k: int, r: int) -> LaurentScalar:
    """[k r]_q by the q-Pascal rule [k r] = [k-1 r-1] + q^r [k-1 r]."""
    if r == 0 or r == k:
        return ONE
    return (_gauss_binomial(k - 1, r - 1)
            + LaurentScalar.q_power(r) * _gauss_binomial(k - 1, r))


@lru_cache(maxsize=None)
def _reorder(k: int, j: int) -> tuple:
    """(r, coefficient) pairs of b^k adag^j = sum_r c_r adag^(j-r) b^(k-r)."""
    return tuple((r, LaurentScalar.q_power((k - r) * (j - r))
                  * _gauss_binomial(k, r) * _gauss_binomial(j, r)
                  * _q_factorial(r))
                 for r in range(min(k, j) + 1))


@lru_cache(maxsize=None)
def _shift(m: int, d: int) -> tuple:
    """(i, C(m, i) d^(m-i)) pairs of (N + d)^m = sum_i C(m, i) d^(m-i) N^i."""
    return tuple((i, comb(m, i) * d ** (m - i))
                 for i in range(m + 1) if d or i == m)


class QuotientPoly(Terms):
    # the float tables of eval_rep, filled on first use; not a field
    __slots__ = ("_bands",)

    def __mul__(self, other):
        if type(other) is not QuotientPoly:
            return NotImplemented
        return self.collect(self._product_terms(other))

    def _product_terms(self, other):
        """The (key, coefficient) pairs of self * other, by

            adag^j1 b^k1 N^m1 adag^j2 b^k2 N^m2
                = adag^j1 (b^k1 adag^j2) b^k2 (N + j2 - k2)^m1 N^m2.

        Generated rather than listed, so that collect sums a large product
        without holding all its pairs at once.
        """
        for (j1, k1, m1), c1 in self._terms.items():
            for (j2, k2, m2), c2 in other._terms.items():
                c = c1 * c2
                shift = _shift(m1, j2 - k2)
                for r, coef in _reorder(k1, j2):
                    cr = c * coef
                    for i, s in shift:
                        yield (j1 + j2 - r, k1 + k2 - r, i + m2), cr.scale(s)

    def sorted_keys(self):
        return sorted(self._terms, key=lambda t: (sum(t), t))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for j, k, m in self.sorted_keys():
            c = self._terms[(j, k, m)]
            word = "*".join(["adag"] * j + ["b"] * k + ["N"] * m) or "1"
            parts.append(f"({c!r})*{word}")
        return " + ".join(parts)

    def _band_tables(self):
        """Float form of the coefficients, converted once per normal form.

        Returns ``(exps, values, groups)``: coefficient t is
        ``sum_e values[t, e] q^exps[e]``, with ``exps`` a list of ints; each group is
        ``(j, k, rows, ms)``, the terms adag^j b^k N^m at ``rows``, in
        (j, k, m) order.
        """
        try:
            return self._bands
        except AttributeError:
            pass
        keys = sorted(self._terms)
        exps = sorted({e for c in self._terms.values() for e in c._terms})
        column = {e: i for i, e in enumerate(exps)}
        values = np.zeros((len(keys), len(exps)))
        for t, key in enumerate(keys):
            c = self._terms[key]
            for e, num in c._terms.items():
                # correctly rounded, as float(Fraction(num, c._den))
                try:
                    values[t, column[e]] = num / c._den
                except OverflowError:
                    raise OutOfRange("a coefficient of the normal form is "
                                     "beyond float range, so it cannot be "
                                     "evaluated") from None
        groups = []
        for (j, k), run in groupby(enumerate(keys), key=lambda tk: tk[1][:2]):
            run = list(run)
            groups.append((j, k, slice(run[0][0], run[-1][0] + 1),
                           np.array([key[2] for _, key in run])))
        _setattr(self, "_bands", (exps, values, tuple(groups)))
        return self._bands

    def eval_rep(self, reps) -> Bands:
        """Numeric value in the matrix representations of a sweep of
        Gentile modes ``reps``, in band form (:class:`Bands`).

        adag^j b^k N^m maps |nu> to nu^m times the product of the ladder
        amplitudes along the way to |nu - k + j>, so each (j, k) group
        fills the band at offset k - j; words with j or k above n vanish.
        """
        exps, values, groups = self._band_tables()
        mask, amp = sweep_ladder(reps)
        dim = mask.shape[1]
        # coefs[t, i] = sum of values[t, e] q_i^e over e in order, q^e from
        # rep i's table with e reduced mod n+1 as an int: no BLAS kernel
        # decides the bits, and each row has those of its rep alone
        coefs = np.zeros((len(values), len(reps)), dtype=complex)
        for column, e in zip(values.T, exps):
            coefs += column[:, None] * np.array(
                [rep.roots[e % rep.dim] for rep in reps])
        # b|nu> = amp[nu-1]|nu-1>, adag|mu> = amp[mu]|mu+1>
        max_j = max((j for j, _, _, _ in groups if j < dim), default=0)
        max_k = max((k for _, k, _, _ in groups if k < dim), default=0)
        # lowered[k][i, nu]: amplitude of b^k on |nu> of rep i, for
        # k <= nu <= n_i, and 0 elsewhere
        lowered = [mask.astype(complex)]
        for k in range(1, max_k + 1):
            lowered.append(np.zeros_like(amp))
            lowered[k][:, k:] = lowered[k - 1][:, k:] * amp[:, :dim - k]
        # raised[j][i, mu]: amplitude of adag^j on |mu> of rep i, for
        # mu + j <= n_i, and 0 elsewhere
        raised = lowered[:1]
        for j in range(1, max_j + 1):
            raised.append(np.zeros_like(amp))
            raised[j][:, :dim - j] = (raised[j - 1][:, :dim - j]
                                      * amp[:, j - 1:dim - 1])
        out = {}
        for j, k, rows, ms in groups:
            width = dim - max(j, k)
            if width <= 0:
                continue
            nu = np.arange(k, k + width, dtype=float)
            poly = np.zeros((len(reps), width), dtype=complex)
            for c, m in zip(coefs[rows], ms):
                poly += c[:, None] * nu ** m
            band = np.zeros_like(amp)
            # entries (nu - k + j, nu), nu = k .. k + width - 1, in rep i's
            # matrix while max(j, k) + the index <= n_i; 0 beyond it, also
            # where a larger rep's nu^m is beyond float range
            band[:, j:j + width] = np.where(
                mask[:, -width:],
                poly * lowered[k][:, k:k + width] * raised[j][:, :width], 0)
            prev = out.get(k - j)
            out[k - j] = band if prev is None else prev + band
        return Bands(dict(sorted(out.items())))


_GEN_Q = {
    "adag": QuotientPoly({(1, 0, 0): ONE}),
    "b": QuotientPoly({(0, 1, 0): ONE}),
    "N": QuotientPoly({(0, 0, 1): ONE}),
}
_QUOTIENT = Algebra(
    gen=_GEN_Q.__getitem__,
    scalar=lambda s: QuotientPoly({(0, 0, 0): s} if s else {}), mul=mul,
    qscale=lambda p: p.scale(Q), power=None, relabel=None)


def normal_order(e: Expr) -> QuotientPoly:
    """Canonical normal-ordered form of an adag/b/N expression."""
    bad = generators_of(e) - QUOTIENT_ALPHABET
    if bad:
        raise OutOfRange(
            f"generators {sorted(bad)} not in the quotient alphabet "
            f"{sorted(QUOTIENT_ALPHABET)}")
    return _normal_order(e)


def _normal_order(e: Expr) -> QuotientPoly:
    return fold(e, _QUOTIENT)
