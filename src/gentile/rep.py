"""Finite-dimensional matrix realization of Gentile statistics.

For maximum occupation number n the single-mode state space is spanned by
|0>, ..., |n>.  The creation operator raises with amplitude
sqrt(<nu+1>), the annihilation operator b lowers with sqrt(<nu>), where
<nu> is the q-integer bracket number at q = exp(i*2*pi/(n+1)).  The
deformed exchange rule  b a^dag - q a^dag b = 1  then holds exactly,
including the wraparound on the top state where -q<n> = 1.

``build_rep`` is the one place q is specialized: its table ``roots`` holds
q^0 .. q^n, and every numeric q^k in the package is ``roots[k % (n+1)]``.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate

import numpy as np

from ._record import Record
from .errors import GateFailed

ARCSIN_TOL = 1e-12  # Hermiticity and arcsin domain margin of the sine matrix
MATCH_TOL = 1e-9  # a value agrees with nu; two sine eigenvalues collide


class GentileRep(Record):
    """One Gentile mode on the (n+1)-dimensional Fock space.

    The table of q and the ladder amplitudes are the data: a_dag and b
    carry amp on their sub- and superdiagonal, a and b_dag conj(amp).
    ``audit.sweep_algebra`` builds a sweep's matrices in band form.
    """

    __slots__ = _fields = (
        "n",
        "roots",  # q^0 .. q^n, a tuple of Python complex
        "bracket_numbers",  # <0>_n ... <n+1>_n
        "amp",  # sqrt(<1>_n) .. sqrt(<n>_n), a tuple of Python complex
    )

    @property
    def dim(self) -> int:
        return self.n + 1

    @property
    def q(self) -> complex:
        return self.roots[1]

def build_rep(n: int) -> GentileRep:
    """The bracket numbers and ladder amplitudes of one mode."""
    theta = 2.0 * math.pi / (n + 1)
    roots = tuple(cmath.exp(1j * theta * j) for j in range(n + 1))
    # <0>_n .. <n+1>_n as running sums of q^j, j = 0..n, from the int 0
    brackets = tuple(accumulate(roots, initial=0))
    amp = tuple(map(cmath.sqrt, brackets[1:n + 1]))
    return GentileRep(n=n, roots=roots, bracket_numbers=brackets, amp=amp)


def sweep_ladder(reps):
    """``(mask, amp)`` of a sweep of reps, each a ``(len(reps), L)`` array
    with L the largest dim: ``mask[i, r]`` is True for r <= n_i, and
    ``amp[i, r]`` is rep i's ``amp[r]`` for r < n_i and 0 beyond."""
    dims = np.array([rep.dim for rep in reps])
    mask = np.arange(dims.max()) < dims[:, None]
    amp = np.zeros(mask.shape, dtype=complex)
    for row, rep in zip(amp, reps):
        row[:rep.n] = rep.amp
    return mask, amp


def quadratic_diagonals(mask, amp):
    """Diagonals of a^dag b, b^dag a, a b^dag and b a^dag, in that order,
    of a sweep's ``sweep_ladder`` arrays, each ``(len(reps), L)``: row i,
    index v <= n_i holds entry (v, v) of rep i's product, and every slot
    beyond is 0.

    Each product pairs a raising with a lowering band, so it is
    diagonal: (raise lower)[v, v] = raise[v, v-1] lower[v-1, v] for
    v >= 1 and (lower raise)[v, v] = lower[v, v+1] raise[v+1, v] for
    v < n.  The bands are amp (a^dag, b) and conj(amp) (a, b^dag).
    """
    up_down = amp * amp
    up_down_bar = np.conj(amp) * np.conj(amp)
    # conj turns amp's padding into -0j: set it back to 0, which a rep's
    # (n, n) entry of a b^dag is
    inside = np.zeros_like(mask)
    inside[:, :-1] = mask[:, 1:]
    up_down_bar[~inside] = 0
    adag_b = np.zeros_like(amp)
    adag_b[:, 1:] = up_down[:, :-1]
    bdag_a = np.zeros_like(amp)
    bdag_a[:, 1:] = up_down_bar[:, :-1]
    return adag_b, bdag_a, up_down_bar, up_down


class Bands(Record):
    """The matrices of a sweep of reps in band form.

    ``bands`` maps each offset o (column - row), in ascending order, to one
    ``(len(reps), L)`` complex array, L the largest dim, whose row i, index
    r holds entry (r, r + o) of rep i's matrix; every slot outside that
    matrix is exactly 0.  A product sums its terms over the pairs of
    offsets in ascending order, so each row has the bits of that rep's
    sweep alone.  No array is written after it is built, so values share
    them.
    """
    __slots__ = _fields = ("bands",)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def _combine(self, other, op):
        """op over the union of offsets, an offset missing on one side
        taken as 0."""
        x, y = self.bands, other.bands
        return Bands({o: x[o] if o not in y else op(x.get(o, 0), y[o])
                      for o in sorted(x.keys() | y.keys())})

    def __mul__(self, other):
        """(XY)[o1 + o2][r] = sum of X[o1][r] Y[o2][r + o1]; a term is
        formed only where both slots can lie in a matrix, and an offset
        with |o| >= L is dropped."""
        out = {}
        for o1, x in self.bands.items():
            width = x.shape[1]
            for o2, y in other.bands.items():
                o = o1 + o2
                lo, hi = max(0, -o1, -o), min(width, width - o1, width - o)
                if lo >= hi:
                    continue
                acc = out.get(o)
                if acc is None:
                    acc = out[o] = np.zeros(x.shape, dtype=complex)
                acc[:, lo:hi] += x[:, lo:hi] * y[:, lo + o1:hi + o1]
        return Bands(dict(sorted(out.items())))

    def __eq__(self, other):
        if other.__class__ is not Bands:
            return NotImplemented
        return self._bits() == other._bits()

    def __hash__(self):
        return hash(self._bits())

    def _bits(self):
        return tuple((o, band.tobytes()) for o, band in self.bands.items())

    def row_max(self, rows: int) -> np.ndarray:
        """The largest entrywise modulus of each of the ``rows`` matrices,
        0 for a sweep with no band; NaN or inf where a row is not finite."""
        worst = np.zeros(rows)
        for band in self.bands.values():
            np.maximum(worst, np.abs(band).max(axis=1), out=worst)
        return worst


def _close_pairs(values, tol: float):
    """Index pairs (i, j), i < j, with abs(values[i] - values[j]) <= tol.

    Pairs come in lexicographic order.  A sweep in order of real part
    finds them: |Re(x - y)| <= |x - y|, so a pair lies within tol only
    if its real parts do.
    """
    order = sorted(range(len(values)), key=lambda i: values[i].real)
    pairs = []
    for k, i in enumerate(order):
        m = k + 1
        while (m < len(order)
               and values[order[m]].real - values[i].real <= tol):
            j = order[m]
            if abs(values[i] - values[j]) <= tol:
                pairs.append((min(i, j), max(i, j)))
            m += 1
    return sorted(pairs)


class ArcsinAudit(Record):
    """Outcome of the arcsin-based number-operator reconstruction."""

    __slots__ = _fields = (
        # rows (nu, reconstructed value, agrees with nu)
        "table",
        # (nu, nu') pairs of distinct occupation numbers sharing an
        # eigenvalue of the sine matrix; any such pair makes
        # reconstruction impossible for every arcsin branch
        "collisions",
    )

    @property
    def collision_flag(self) -> bool:
        return bool(self.collisions)


def _sine_diagonal(reps) -> np.ndarray:
    """Diagonal of M = (i/2)(a^dag b - b^dag a + a b^dag - b a^dag) for
    each rep of a sweep, one row each, 0 beyond the rep."""
    adag_b, bdag_a, a_bdag, b_adag = quadratic_diagonals(*sweep_ladder(reps))
    return 0.5j * (adag_b - bdag_a + a_bdag - b_adag)


def require_hermitian(diagonals: np.ndarray, tol: float):
    """``GateFailed("NotHermitian")`` for the first row whose
    m = diag(row) is not Hermitian: max |m - m^H| <= tol."""
    dev = np.max(np.abs(diagonals - diagonals.conj()), axis=1)
    failed = ~(dev <= tol)  # a NaN entry makes dev NaN
    if failed.any():
        first = float(dev[np.argmax(failed)])
        raise GateFailed("NotHermitian", f"max |m - m^H| = {first:.3e} "
                         f"exceeds tol {tol:.3e}")


def number_from_arcsin(reps) -> list:
    """Reconstruct the number operator from the sine combination, one
    ``ArcsinAudit`` for each rep of a sweep.

    M is diagonal in the Fock basis, with eigenvalue sin(2*pi*nu/(n+1))
    on |nu>, so its principal-branch arcsin, scaled by (n+1)/(2*pi), is
    taken entry by entry on the diagonal.  The per-state table records
    where the reconstruction agrees with nu; collisions between distinct
    nu values are flagged.  The gates are those of a sweep one n at a
    time: at each n, M Hermitian, then its eigenvalues in [-1, 1].
    """
    m = _sine_diagonal(reps)
    diag_m = m.real
    inside = np.all((diag_m >= -1.0 - ARCSIN_TOL)
                    & (diag_m <= 1.0 + ARCSIN_TOL), axis=1)
    first = int(np.argmin(inside))  # the first row outside, else 0
    require_hermitian(m if inside[first] else m[:first + 1], ARCSIN_TOL)
    if not inside[first]:
        raise GateFailed("DomainError", "eigenvalue outside domain "
                         f"[-1.0, 1.0] by more than {ARCSIN_TOL}")
    audits = []
    for rep, row, clipped in zip(reps, diag_m.tolist(),
                                 np.clip(diag_m, -1.0, 1.0).tolist()):
        scale = (rep.n + 1) / (2.0 * math.pi)
        table = []
        for v, x in enumerate(clipped[:rep.dim]):
            value = scale * math.asin(x)
            table.append((v, value, abs(value - v) <= MATCH_TOL))
        audits.append(ArcsinAudit(
            table=tuple(table),
            collisions=tuple(_close_pairs(row[:rep.dim], MATCH_TOL))))
    return audits
