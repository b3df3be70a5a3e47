"""Normal ordering in the quotient algebra of adag, b, N.

Rewrite rules (q formal):

    b * adag  ->  q * adag * b + 1
    N * adag  ->  adag * (N + 1)
    N * b     ->  b * (N - 1)

Every word reduces to the canonical form adag^j b^k N^m; a
:class:`QuotientPoly` maps (j, k, m) triples to Laurent-scalar
coefficients.  Each application of the first rule strictly reduces the
number of (b, adag) inversions, so rewriting terminates.
"""

from __future__ import annotations

from math import comb
from operator import mul

import numpy as np

from ..errors import OutOfRange
from ..laurent import ONE, Q, LaurentScalar, Terms, q_integer
from .expr import Algebra, Expr, fold, generators_of

QUOTIENT_ALPHABET = frozenset({"adag", "b", "N"})


class QuotientPoly(Terms):
    __slots__ = ()

    def _mul_adag(self) -> "QuotientPoly":
        pairs = []
        for (j, k, m), c in self._terms.items():
            # N^m adag = adag (N+1)^m ; b^k adag = q^k adag b^k + <k> b^(k-1)
            for i in range(m + 1):
                binom = LaurentScalar.from_rational(comb(m, i))
                pairs.append(((j + 1, k, i), (Q ** k) * c * binom))
                if k >= 1:
                    pairs.append(((j, k - 1, i), q_integer(k) * c * binom))
        return self.collect(pairs)

    def _mul_b(self) -> "QuotientPoly":
        pairs = []
        for (j, k, m), c in self._terms.items():
            # N^m b = b (N-1)^m
            for i in range(m + 1):
                sign = 1 if (m - i) % 2 == 0 else -1
                binom = LaurentScalar.from_rational(sign * comb(m, i))
                pairs.append(((j, k + 1, i), c * binom))
        return self.collect(pairs)

    def _mul_num(self) -> "QuotientPoly":
        return QuotientPoly({(j, k, m + 1): c
                             for (j, k, m), c in self._terms.items()})

    def __mul__(self, other):
        if type(other) is not QuotientPoly:
            return NotImplemented
        total = QuotientPoly()
        for (j, k, m), c in other._terms.items():
            part = self.scale(c)
            for _ in range(j):
                part = part._mul_adag()
            for _ in range(k):
                part = part._mul_b()
            for _ in range(m):
                part = part._mul_num()
            total = total + part
        return total

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

    def eval_rep(self, rep) -> np.ndarray:
        """Numeric value in the matrix representation of one Gentile mode."""
        dim = rep.dim
        total = np.zeros((dim, dim), dtype=complex)
        for (j, k, m), c in self._terms.items():
            mat = np.linalg.matrix_power(rep.a_dag, j)
            mat = mat @ np.linalg.matrix_power(rep.b, k)
            mat = mat @ np.linalg.matrix_power(rep.num, m)
            total += c.eval_at(rep.q) * mat
        return total


_GEN_Q = {
    "adag": QuotientPoly({(1, 0, 0): ONE}),
    "b": QuotientPoly({(0, 1, 0): ONE}),
    "N": QuotientPoly({(0, 0, 1): ONE}),
}
_QUOTIENT = Algebra(gen=_GEN_Q.__getitem__,
                    scalar=lambda s: QuotientPoly({(0, 0, 0): s}), mul=mul,
                    qscale=lambda p: p.scale(Q))


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


def quotient_check(lhs: Expr, rhs: Expr):
    """True plus zero residual iff lhs == rhs in the quotient algebra."""
    residual = normal_order(lhs) - normal_order(rhs)
    return residual.is_zero, residual
