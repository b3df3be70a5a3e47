"""Intermediate-statistics coherent states on the generalized-Grassmann module.

The module has basis |nu> psi^k with 0 <= nu, k <= n and the truncation
psi^(n+1) = 0.  psi moves past a number state by picking up the twist
lambda(nu, n); ladder operators act on the state index only.  The
coherent state is the annihilation-operator eigenstate with eigenvalue
psi, built from the recursion
delta(nu+1) * sqrt(<nu+1>) = delta(nu) * lambda(nu).
"""

from __future__ import annotations

import cmath
from enum import Enum

import numpy as np

from ._record import Record
from .rep import build_rep

EIGENSTATE_TOL = 1e-12  # bound on eigenstate_residual


class LambdaChoice(Enum):
    ROOT_OF_UNITY_PLUS = "plus"
    ROOT_OF_UNITY_MINUS = "minus"
    ALTERNATING = "alternating"


class CoherentState(Record):
    """The coherent state on the module with basis |nu> psi^k, 0 <= nu,
    k <= rep.n; b acts with the amplitudes ``rep.amp``, psi with ``lam``."""

    __slots__ = _fields = (
        "choice",
        "delta",  # delta(0, n) .. delta(n, n), the coefficients of |nu> psi^nu
        "rep",
        "lam",  # lambda(0, n) .. lambda(n, n)
    )


def build_coherent(n: int, choice) -> CoherentState:
    """Coherent state from the delta recursion, diagonal in (nu, k)."""
    rep = build_rep(n)
    # lambda(nu, n) for nu = 0..n: q^nu, q^-nu or (-1)^nu, the powers of q
    # read from the rep's table
    if choice is LambdaChoice.ROOT_OF_UNITY_PLUS:
        lam = rep.roots
    elif choice is LambdaChoice.ROOT_OF_UNITY_MINUS:
        lam = rep.roots[:1] + rep.roots[:0:-1]
    else:
        lam = tuple(complex((-1) ** v) for v in range(n + 1))
    amp = rep.amp  # sqrt(<1>) .. sqrt(<n>)
    delta = [1 + 0j]
    for v in range(n):
        # Python complex division: numpy's rounds differently
        delta.append(delta[v] * lam[v] / amp[v])
    return CoherentState(choice=choice, delta=tuple(delta), rep=rep, lam=lam)


def eigenstate_residual(state: CoherentState) -> float:
    """Max-abs coefficient of b|psi> - psi|psi>; zero by construction.

    Both sides live on the band |nu> psi^(nu+1): b moves delta(nu+1)
    down with amplitude sqrt(<nu+1>), psi moves delta(nu) right with
    lambda(nu), and psi^(n+1) truncates the top state away.
    """
    delta = np.array(state.delta)
    lam = np.array(state.lam[:-1])
    return float(np.max(np.abs(np.asarray(state.rep.amp) * delta[1:]
                               - lam * delta[:-1])))


def closed_form_deltas(roots, sign: int) -> list:
    """Printed closed form for delta(0, n) .. delta(n, n), principal roots,
    from the table ``roots`` of q^0 .. q^n.

    ``sign`` +1/-1 selects the two root-of-unity lambda choices, whose
    phase is q^(sign v(v-1)/2), and 0 the alternating choice.  Nested
    principal roots need not distribute over the product, so a value can
    differ from the recursion by a sign.
    """
    m = len(roots)
    deltas = [1 + 0j]
    denominator = 1 + 0j
    for v in range(1, m):
        if sign == 0:
            phase = complex((-1) ** ((v - 1) * v // 2))
        else:
            phase = roots[sign * (v * (v - 1) // 2) % m]
        denominator *= cmath.sqrt(1 - roots[v])
        deltas.append(phase * (1 - roots[1]) ** (v / 2) / denominator)
    return deltas


def closed_form_modulus_gap(state: CoherentState) -> float:
    """Largest ``||closed form| - |recursion||`` of delta over nu; the two
    may differ by a per-nu sign, so only the moduli are compared."""
    sign = {LambdaChoice.ROOT_OF_UNITY_PLUS: 1,
            LambdaChoice.ROOT_OF_UNITY_MINUS: -1,
            LambdaChoice.ALTERNATING: 0}[state.choice]
    closed = closed_form_deltas(state.rep.roots, sign)
    return max(abs(abs(c) - abs(rec)) for rec, c in zip(state.delta, closed))


def normalization_poly(state: CoherentState):
    """Coefficients [1, |delta(1)|^2, ..., |delta(n)|^2] of (psibar psi)^m.

    The normalization prefactor itself is formal in psibar*psi, so only
    the polynomial data is returned, never a number.
    """
    return [1.0] + [abs(d) ** 2 for d in state.delta[1:]]
