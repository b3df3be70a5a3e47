"""The intermediate-statistics oscillator: Hamiltonian, spectrum, limits.

The quadratic form (alpha = 1, beta = conj(q)) is diagonal in the
Fock basis, so three independent routes to the spectrum are available:
the per-state closed form, the residue-case level formulas, and the
diagonal of H built from the ladder amplitudes.  Degeneracies are always
computed by clustering the per-state energies, never taken from
level-counting claims.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from ._record import Record
from .rep import (build_rep, quadratic_diagonals, require_hermitian,
                  sweep_ladder)

CLUSTER_TOL = 1e-9
SPECTRUM_TOL = 1e-10  # levels vs eigenvalues; also H's Hermiticity


def build_hamiltonian(reps) -> np.ndarray:
    """Diagonal of the quadratic Hamiltonian
    (1/4)[alpha a^dag b + beta b a^dag + h.c.] with alpha = 1 and
    beta = conj(q), for each rep of a sweep: one row each, 0 beyond the
    rep.

    Each term pairs a raising with a lowering ladder matrix, so H is
    diagonal (see ``rep.quadratic_diagonals``).
    """
    adag_b, bdag_a, a_bdag, b_adag = quadratic_diagonals(*sweep_ladder(reps))
    alpha = 1 + 0j
    beta = np.array([[rep.q.conjugate()] for rep in reps])
    return (alpha * adag_b + beta * b_adag
            + np.conj(alpha) * bdag_a + np.conj(beta) * a_bdag) / 4.0


def per_state_energy(n: int, v: int) -> float:
    """Closed-form diagonal energy E(nu) of the Hamiltonian."""
    t = math.pi / (n + 1)
    return 0.5 / math.sin(t) * (math.sin((2 * v - 1) * t)
                                + math.sin(2 * t) * math.cos(t))


def case_class(n: int) -> str:
    residue = n % 4
    return {1: "4t+1", 2: "4t+2", 3: "4t+3", 0: "4t+4"}[residue]


def _case_levels(n: int):
    """Raw level list from the residue-case formula, plus the prose count."""
    t = math.pi / (n + 1)
    base = math.cos(t) ** 2
    amp = 0.5 / math.sin(t)
    cls = case_class(n)
    if cls == "4t+1":
        ks = range((n + 1) // 2 + 1)
        levels = [base + amp * math.sin((4 * k - n - 1) * t / 2) for k in ks]
        prose_count = (n + 3) // 2
    elif cls in ("4t+2", "4t+4"):
        ks = range(n + 1)
        levels = [base + amp * math.sin((2 * k - n) * t / 2) for k in ks]
        prose_count = n + 1
    else:  # 4t+3
        ks = range((n - 1) // 2 + 1)
        levels = [base + amp * math.sin((4 * k - n + 1) * t / 2) for k in ks]
        prose_count = (n + 1) // 2
    return levels, prose_count


def _prose_multiplicity(cls: str, index: int, level_count: int) -> int:
    if cls == "4t+1":
        # prose: all levels two-fold except the non-degenerate highest
        return 1 if index == level_count - 1 else 2
    if cls in ("4t+2", "4t+4"):
        return 1
    return 2  # 4t+3: all two-fold


class SpectrumReport(Record):
    __slots__ = _fields = (
        "n",
        "case_class",
        "levels",  # (energy, multiplicity), ascending
        "ground",
        "highest",
        "per_state_energies",
        "prose_level_count",
        # (level index, computed multiplicity, prose multiplicity) wherever
        # the computed value contradicts the prose claim
        "degeneracy_discrepancies",
    )

    def to_dict(self):
        return {
            "n": self.n,
            "case_class": self.case_class,
            "levels": [{"energy": e, "multiplicity": m}
                       for e, m in self.levels],
            "ground": self.ground,
            "highest": self.highest,
            "per_state_energies": self.per_state_energies,
            "prose_level_count": self.prose_level_count,
            "degeneracy_discrepancies": self.degeneracy_discrepancies,
        }


def closed_form_spectrum(n: int) -> SpectrumReport:
    """Levels from the residue-case formula, multiplicities by clustering."""
    raw_levels, prose_count = _case_levels(n)
    per_state = [per_state_energy(n, v) for v in range(n + 1)]
    # dedupe case-formula values (the formulas can repeat a level exactly)
    unique = []
    for e in sorted(raw_levels):
        if not unique or abs(e - unique[-1]) > CLUSTER_TOL:
            unique.append(e)
    # only states within CLUSTER_TOL of e count; bisecting for a window
    # twice as wide keeps rounding at its ends from dropping one
    ordered = sorted(per_state)
    levels = []
    for e in unique:
        window = ordered[bisect_left(ordered, e - 2 * CLUSTER_TOL):
                         bisect_right(ordered, e + 2 * CLUSTER_TOL)]
        mult = sum(1 for x in window if abs(x - e) <= CLUSTER_TOL)
        levels.append((e, mult))
    cls = case_class(n)
    discrepancies = []
    for idx, (_, mult) in enumerate(levels):
        claimed = _prose_multiplicity(cls, idx, len(levels))
        if mult != claimed:
            discrepancies.append((idx, mult, claimed))
    return SpectrumReport(
        n=n, case_class=cls, levels=tuple(levels),
        ground=levels[0][0], highest=levels[-1][0],
        per_state_energies=tuple(per_state),
        prose_level_count=prose_count,
        degeneracy_discrepancies=tuple(discrepancies))


def spectrum_crosscheck(n_values):
    """Compare case-formula levels against the eigenvalues of H, one
    ``(passed, max deviation, report)`` for each n of a sweep.

    H is diagonal, so its eigenvalues are the sorted real parts of its
    diagonal, once H is Hermitian within SPECTRUM_TOL at every n.
    """
    h = build_hamiltonian([build_rep(n) for n in n_values])
    require_hermitian(h, SPECTRUM_TOL)
    # the slots beyond a rep sort last
    outside = np.arange(h.shape[1]) > np.array(n_values)[:, None]
    eigvals = np.sort(np.where(outside, np.inf, h.real), axis=1)
    results = []
    for n, row in zip(n_values, eigvals.tolist()):
        report = closed_form_spectrum(n)
        expanded = [e for e, m in report.levels for _ in range(m)]
        if len(expanded) != n + 1:
            results.append((False, math.inf, report))
            continue
        deviation = max(abs(a - b) for a, b in zip(sorted(expanded), row))
        results.append((deviation <= SPECTRUM_TOL, deviation, report))
    return results
