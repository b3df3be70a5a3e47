"""Noncommutative polynomials over the Laurent ring in formal q.

A :class:`FreePoly` maps words (tuples of generator names) to exact
Laurent-scalar coefficients.  Deformed brackets expand with the formal
symbol q, so an identity that holds for every n reduces to the exact zero
polynomial.
"""

from __future__ import annotations

from operator import mul

from ..laurent import ONE, Q, LaurentScalar
from .expr import Algebra, Expr, fold


class FreePoly:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    clean[tuple(word)] = coeff
        self._terms = clean

    @property
    def terms(self):
        return dict(self._terms)

    @classmethod
    def scalar(cls, s: LaurentScalar) -> "FreePoly":
        return cls({(): s})

    @classmethod
    def generator(cls, name: str) -> "FreePoly":
        return cls({(name,): ONE})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        out = dict(self._terms)
        for w, c in other._terms.items():
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
        return FreePoly(out)

    def __sub__(self, other):
        out = dict(self._terms)
        for w, c in other._terms.items():
            prev = out.get(w)
            out[w] = -c if prev is None else prev - c
        return FreePoly(out)

    def __neg__(self):
        return FreePoly({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        out: dict = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                c = c1 * c2
                prev = out.get(w)
                out[w] = c if prev is None else prev + c
        return FreePoly(out)

    def scale(self, s: LaurentScalar) -> "FreePoly":
        return FreePoly({w: s * c for w, c in self._terms.items()})

    def specialize_unit(self, sign: int) -> dict:
        """Exact coefficients at q = +1 or q = -1, zeros dropped."""
        out = {}
        for w, c in self._terms.items():
            val = c.subs_unit(sign)
            if val:
                out[w] = val
        return out

    def sorted_words(self):
        """Length-lexicographic word order for reproducible output."""
        return sorted(self._terms, key=lambda w: (len(w), w))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for w in self.sorted_words():
            c = self._terms[w]
            word = "*".join(w) if w else "1"
            parts.append(f"({c!r})*{word}")
        return " + ".join(parts)


_FREE = Algebra(gen=FreePoly.generator, scalar=FreePoly.scalar, mul=mul,
                qscale=lambda p: p.scale(Q))


def expand_free(e: Expr) -> FreePoly:
    """Fully distribute an expression into a canonical free polynomial."""
    return fold(e, _FREE)
