"""Noncommutative polynomials over the Laurent ring in formal q.

A :class:`FreePoly` maps words (tuples of generator names) to exact
Laurent-scalar coefficients.  Deformed brackets expand with the formal
symbol q, so an identity that holds for every n reduces to the exact zero
polynomial.
"""

from __future__ import annotations

from operator import mul

from ..laurent import ONE, Q, LaurentScalar, Terms
from .expr import DEFAULT_ALPHABET, Algebra, Expr, fold


class FreePoly(Terms):
    __slots__ = ()

    @classmethod
    def scalar(cls, s: LaurentScalar) -> "FreePoly":
        return cls({(): s} if s else {})

    def relabel(self, to: dict) -> "FreePoly":
        """Each letter x of each word renamed to ``to.get(x, x)``; for a
        bijection on names the words stay distinct and keep their order."""
        get = to.get
        return FreePoly({tuple(map(get, w, w)): c
                         for w, c in self._terms.items()})

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


_GEN_FREE = {name: FreePoly({(name,): ONE}) for name in DEFAULT_ALPHABET}
_FREE = Algebra(gen=_GEN_FREE.__getitem__, scalar=FreePoly.scalar, mul=mul,
                qscale=lambda p: p.scale(Q), power=None,
                relabel=FreePoly.relabel)


def expand_free(e: Expr) -> FreePoly:
    """Fully distribute an expression into a canonical free polynomial."""
    return fold(e, _FREE)
