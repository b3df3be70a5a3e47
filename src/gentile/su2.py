"""su(2) representations from a single set of Gentile ladder operators.

J_z = N - n/2; J_+ = sum_l conj(lambda_l) A^l a_dag with A any diagonal
operator commuting with N.  The interpolation coefficients lambda_l are
solved by Newton divided differences over the n eigenvalue nodes of A on
|1>..|n>, the linear problem that makes each raising matrix element equal
the standard spin value c_+(nu) = sqrt((n-nu)(nu+1)).  The quadratic
coefficient equations from the [J_+, J_-] = 2 J_z diagonal are then
verified a posteriori.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._record import FrozenRecord
from .errors import DegenerateNodes, OutOfRange
from .linalg import max_abs_diff
from .rep import GentileRep, _close_pairs, build_rep

NODE_SEPARATION = 1e-9
TOL = 1e-9  # bound on every residual of verify_representation


class DiagonalChoice(Enum):
    NUM = "num"
    ADAG_B = "adagb"
    BDAG_A = "bdaga"
    ADAG_A = "adaga"
    A_ADAG = "aadag"


def ladder_targets(n: int):
    """Standard real raising matrix elements c_+(0)..c_+(n)."""
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    return [math.sqrt((n - v) * (v + 1)) for v in range(n + 1)]


def diagonal_operator(rep: GentileRep, choice: DiagonalChoice) -> np.ndarray:
    if choice is DiagonalChoice.NUM:
        return rep.num
    if choice is DiagonalChoice.ADAG_B:
        return rep.a_dag @ rep.b
    if choice is DiagonalChoice.BDAG_A:
        return rep.b_dag @ rep.a
    if choice is DiagonalChoice.ADAG_A:
        return rep.a_dag @ rep.a
    if choice is DiagonalChoice.A_ADAG:
        return rep.a @ rep.a_dag
    raise OutOfRange(f"unknown diagonal choice {choice!r}")


def _check_nodes(nodes):
    pairs = _close_pairs(nodes, NODE_SEPARATION)
    if pairs:
        i, j = pairs[0]
        # node index i corresponds to state |i+1>
        raise DegenerateNodes((i + 1, j + 1), abs(nodes[i] - nodes[j]))


def divided_differences(nodes, values):
    """Newton divided-difference table d_0 .. d_(m-1) over distinct nodes.

    Level k replaces d_k .. d_(m-1) at once by
    (d_i - d_(i-1)) / (x_i - x_(i-k)); numpy divides arrays and scalars
    alike, so the table has the bits of the entry-by-entry loop.  The
    entries come back as Python complex.
    """
    x = np.asarray(nodes, dtype=complex)
    divided = np.array(values, dtype=complex)
    for level in range(1, len(x)):
        divided[level:] = (divided[level:] - divided[level - 1:-1]) \
            / (x[level:] - x[:-level])
    return divided.tolist()


def newton_eval(nodes, divided, z: complex) -> complex:
    """Horner evaluation of the interpolant in the Newton basis.

    On Python complex nodes and coefficients each step rounds as numpy's
    complex128 scalars do, (ac - bd, ad + bc) without a fused
    multiply-add, and runs several times faster.
    """
    acc = complex(divided[-1])
    for k in range(len(divided) - 2, -1, -1):
        acc = acc * (z - nodes[k]) + divided[k]
    return acc


def newton_coefficients(nodes, divided):
    """Monomial coefficients of the Newton-form interpolant.

    ``divided`` is the divided-difference table of ``nodes``; the Newton
    basis is expanded into powers.  The monomial form is for reporting;
    assembly and residual checks stay in the Newton basis, which is far
    better conditioned here.
    """
    m = len(nodes)
    # accumulate prod_(j<k) (x - x_j) in the monomial basis
    coeffs = np.zeros(m, dtype=complex)
    basis = np.zeros(m, dtype=complex)
    basis[0] = 1.0
    coeffs += divided[0] * basis
    for k in range(1, m):
        shifted = np.zeros(m, dtype=complex)
        shifted[1:] = basis[:-1]
        basis = shifted - nodes[k - 1] * basis
        coeffs += divided[k] * basis
    return coeffs


class Su2Rep(FrozenRecord):
    __slots__ = _fields = (
        "n",
        "j",
        "choice",
        "j_plus",
        "j_minus",
        "j_z",
        # Newton-basis data of p(z) = sum_l conj(lambda_l) z^l, kept for
        # stable residual checks (the monomial lambdas are report-friendly
        # but ill-conditioned to evaluate directly for larger n)
        "nodes",
        "divided",
        # <0>_n .. <n+1>_n of the GentileRep the solve used
        "bracket_numbers",
    )


def solve_representation(n: int, choice: DiagonalChoice) -> Su2Rep:
    """Solve the raising-operator interpolation for one diagonal choice.

    J_+ = p(A) a_dag, where p interpolates c_+(nu) / <nu+1|a_dag|nu> at
    the nodes A|nu+1>; the monomial coefficients of p are
    conj(lambda_l).  A is diagonal: p(A) is p at its diagonal, by Horner
    in the Newton basis.
    """
    rep = build_rep(n)
    diagonal = diagonal_operator(rep, choice).diagonal().tolist()
    nodes = diagonal[1:]
    _check_nodes(nodes)
    c_plus = ladder_targets(n)
    divided = divided_differences(
        nodes, [c_plus[v] / rep.a_dag[v + 1, v] for v in range(n)])
    p = [newton_eval(nodes, divided, a) for a in diagonal]
    j_plus = np.array(p)[:, None] * rep.a_dag
    return Su2Rep(n=n, j=n / 2.0, choice=choice,
                  j_plus=j_plus, j_minus=j_plus.conj().T,
                  j_z=rep.num - (n / 2.0) * np.eye(n + 1),
                  nodes=tuple(nodes), divided=tuple(divided),
                  bracket_numbers=rep.bracket_numbers)


def verify_representation(rep: Su2Rep):
    """Residuals of the su(2) relations, the Casimir identity and, for
    A = a_dag b, the printed equations (``e010``); True iff all <= TOL.

    J_z is the real diagonal N - n/2, so a product with it scales rows or
    columns by z = diag(J_z); a dense product would give the same bits up
    to the sign of some zeros, which the residuals' moduli drop.  The
    checks still cover every entry of J_+ and J_-, so an entry off their
    band shows.  Beyond float range a residual is inf or nan, which fails
    the gate, so numpy's overflow warnings are not printed as well.
    """
    jp, jm, jz = rep.j_plus, rep.j_minus, rep.j_z
    z = jz.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):
        pm, mp = jp @ jm, jm @ jp
        residuals = {
            "comm87": max_abs_diff(pm - mp, 2.0 * jz),
            "comm88p": max_abs_diff(z[:, None] * jp - jp * z, jp),
            "comm88m": max_abs_diff(z[:, None] * jm - jm * z, -jm),
            "casimir": max_abs_diff(
                np.diag(z * z) + (pm + mp) / 2.0,
                rep.j * (rep.j + 1.0) * np.eye(jp.shape[0])),
        }
    if rep.choice is DiagonalChoice.ADAG_B:
        residuals["e010"] = e010_residual(rep)
    return residuals, all(r <= TOL for r in residuals.values())


def _abs_squared(value: complex) -> float:
    """|value| ** 2, and inf where it is beyond float range, as numpy
    scalars give; Python's abs and ** raise OverflowError there."""
    try:
        return abs(value) ** 2
    except OverflowError:
        return math.inf


def e010_residual(rep: Su2Rep) -> float:
    """Worst deviation of the printed double-sum equations from 2 nu - n.

    Only printed for the A = a_dag b choice.  The double sum over
    (l, q) factors exactly into |<nu>| |p(<nu>)|^2 - |<nu+1>| |p(<nu+1>)|^2
    with p(z) = sum_l conj(lambda_l) z^l, so it is evaluated through the
    stable Newton form of p rather than raw monomial powers.
    """
    n = rep.n
    # |<nu>| |p(<nu>)|^2 for nu = 0..n+1, each bracket evaluated once
    terms = [abs(br) * _abs_squared(newton_eval(rep.nodes, rep.divided, br))
             for br in rep.bracket_numbers]
    worst = 0.0
    for v in range(n + 1):
        worst = max(worst, abs(terms[v] - terms[v + 1] - (2 * v - n)))
    return worst
