"""Finite-dimensional matrix realization of Gentile statistics.

For maximum occupation number n the single-mode state space is spanned by
|0>, ..., |n>.  The creation operator raises with amplitude
sqrt(<nu+1>), the annihilation operator b lowers with sqrt(<nu>), where
<nu> is the q-integer bracket number at q = exp(i*2*pi/(n+1)).  The
deformed exchange rule  b a^dag - q a^dag b = 1  then holds exactly,
including the wraparound on the top state where -q<n> = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import OutOfRange
from .linalg import matrix_function

ARCSIN_TOL = 1e-12  # Hermiticity and arcsin domain margin of the sine matrix
MATCH_TOL = 1e-9  # a value agrees with nu; two sine eigenvalues collide


@dataclass(frozen=True)
class GentileRep:
    """Matrices of one Gentile mode on the (n+1)-dimensional Fock space."""

    n: int
    q: complex
    bracket_numbers: tuple  # <0>_n ... <n+1>_n
    a_dag: np.ndarray
    b: np.ndarray
    a: np.ndarray = field(repr=False)
    b_dag: np.ndarray = field(repr=False)
    num: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.n + 1


def build_rep(n: int) -> GentileRep:
    """Construct the ladder, adjoint, and number matrices for one mode.

    a_dag and b carry the principal square roots of the bracket numbers;
    a and b_dag are defined as their conjugate transposes (the four are
    distinct matrices except in the Fermi and Bose limits).
    """
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    theta = 2.0 * math.pi / (n + 1)
    q = cmath.exp(1j * theta)
    # <0>_n .. <n+1>_n as running sums of exp(i theta j), j = 0..n, from
    # the int 0
    brackets = tuple(accumulate(
        (cmath.exp(1j * theta * j) for j in range(n + 1)), initial=0))
    amp = [cmath.sqrt(br) for br in brackets[1:n + 1]]
    a_dag = np.diag(amp, -1)
    b = np.diag(amp, 1)
    num = np.diag(np.arange(n + 1, dtype=float)).astype(complex)
    a, b_dag = a_dag.conj().T, b.conj().T
    for m in (a_dag, b, num, a, b_dag):
        m.flags.writeable = False
    return GentileRep(n=n, q=q, bracket_numbers=brackets,
                      a_dag=a_dag, b=b, a=a, b_dag=b_dag, num=num)


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


@dataclass(frozen=True)
class ArcsinAudit:
    """Outcome of the arcsin-based number-operator reconstruction."""

    reconstructed: np.ndarray
    # rows (nu, reconstructed value, agrees with nu)
    table: tuple
    # (nu, nu') pairs of distinct occupation numbers sharing an eigenvalue
    # of the sine matrix; any such pair makes reconstruction impossible
    # for every arcsin branch
    collisions: tuple

    @property
    def collision_flag(self) -> bool:
        return bool(self.collisions)


def number_from_arcsin(rep: GentileRep) -> ArcsinAudit:
    """Reconstruct the number operator from the sine combination.

    Builds M = (i/2)(a^dag b - b^dag a + a b^dag - b a^dag), whose
    eigenvalue on |nu> is sin(2*pi*nu/(n+1)), applies the principal-branch
    arcsin spectrally, and scales by (n+1)/(2*pi).  The per-state table
    records where the reconstruction agrees with nu; collisions between
    distinct nu values are flagged.
    """
    m = 0.5j * (rep.a_dag @ rep.b - rep.b_dag @ rep.a
                + rep.a @ rep.b_dag - rep.b @ rep.a_dag)
    scale = (rep.n + 1) / (2.0 * math.pi)
    rec = scale * matrix_function(m, math.asin, ARCSIN_TOL, domain=(-1.0, 1.0))

    # M is diagonal in the Fock basis, so per-state values sit on the diagonal
    diag_m = np.real(np.diag(m)).tolist()
    table = []
    for v in range(rep.dim):
        value = float(np.real(rec[v, v]))
        table.append((v, value, abs(value - v) <= MATCH_TOL))
    return ArcsinAudit(reconstructed=rec, table=tuple(table),
                       collisions=tuple(_close_pairs(diag_m, MATCH_TOL)))
