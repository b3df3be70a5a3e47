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

    def quadratic_diagonals(self):
        """Diagonals of a^dag b, b^dag a, a b^dag and b a^dag, in that order.

        Each product pairs a raising with a lowering band, so it is
        diagonal: (raise lower)[v, v] = raise[v, v-1] lower[v-1, v] for
        v >= 1 and (lower raise)[v, v] = lower[v, v+1] raise[v+1, v] for
        v < n.  The bands are amp (a^dag, b) and conj(amp) (a, b^dag).
        """
        amp = np.asarray(self.amp)
        zero = np.zeros(1, dtype=complex)
        up_down = amp * amp
        up_down_bar = np.conj(amp) * np.conj(amp)
        return (np.concatenate((zero, up_down)),
                np.concatenate((zero, up_down_bar)),
                np.concatenate((up_down_bar, zero)),
                np.concatenate((up_down, zero)))


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


def _sine_diagonal(rep: GentileRep) -> np.ndarray:
    """Diagonal of M = (i/2)(a^dag b - b^dag a + a b^dag - b a^dag)."""
    adag_b, bdag_a, a_bdag, b_adag = rep.quadratic_diagonals()
    return 0.5j * (adag_b - bdag_a + a_bdag - b_adag)


def require_hermitian(diagonal: np.ndarray, tol: float):
    """``GateFailed("NotHermitian")`` unless m = diag(diagonal) is
    Hermitian: max |m - m^H| <= tol."""
    dev = float(np.max(np.abs(diagonal - diagonal.conj())))
    if not dev <= tol:  # a NaN entry makes dev NaN
        raise GateFailed("NotHermitian", f"max |m - m^H| = {dev:.3e} "
                         f"exceeds tol {tol:.3e}")


def number_from_arcsin(rep: GentileRep) -> ArcsinAudit:
    """Reconstruct the number operator from the sine combination.

    M is diagonal in the Fock basis, with eigenvalue sin(2*pi*nu/(n+1))
    on |nu>, so its principal-branch arcsin, scaled by (n+1)/(2*pi), is
    taken entry by entry on the diagonal.  The per-state table records
    where the reconstruction agrees with nu; collisions between distinct
    nu values are flagged.
    """
    m = _sine_diagonal(rep)
    require_hermitian(m, ARCSIN_TOL)
    diag_m = m.real
    if not (np.all(diag_m >= -1.0 - ARCSIN_TOL)
            and np.all(diag_m <= 1.0 + ARCSIN_TOL)):
        raise GateFailed("DomainError", "eigenvalue outside domain "
                         f"[-1.0, 1.0] by more than {ARCSIN_TOL}")
    scale = (rep.n + 1) / (2.0 * math.pi)
    table = []
    for v, x in enumerate(np.clip(diag_m, -1.0, 1.0).tolist()):
        value = scale * math.asin(x)
        table.append((v, value, abs(value - v) <= MATCH_TOL))
    return ArcsinAudit(table=tuple(table),
                       collisions=tuple(_close_pairs(diag_m.tolist(),
                                                     MATCH_TOL)))
