"""su(2) representations from a single set of Gentile ladder operators.

J_z = N - n/2; J_+ = sum_l conj(lambda_l) A^l a_dag with A any diagonal
operator commuting with N.  The interpolation coefficients lambda_l are
solved by Newton divided differences over the n eigenvalue nodes of A on
|1>..|n>, the linear problem that makes each raising matrix element equal
the standard spin value c_+(nu) = sqrt((n-nu)(nu+1)).  The quadratic
coefficient equations from the [J_+, J_-] = 2 J_z diagonal are then
verified a posteriori.  A and J_z are held as diagonals and J_+ as its
one band, so no matrix is built.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._record import Record
from .errors import DegenerateNodes
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


# Largest n up to which every n passes verify_representation or has
# degenerate nodes, from a sweep of n = 1..1024 (the CLI's maximum); the
# CLI refuses a larger n.  num first fails at 785, adagb at 100 and bdaga
# at 131; adaga has degenerate nodes at every n >= 2, aadag at every n >= 4.
N_LIMIT = {
    DiagonalChoice.NUM: 784,
    DiagonalChoice.ADAG_B: 99,
    DiagonalChoice.BDAG_A: 130,
    DiagonalChoice.ADAG_A: 1024,
    DiagonalChoice.A_ADAG: 1024,
}


def ladder_targets(n: int):
    """Standard real raising matrix elements c_+(0)..c_+(n)."""
    return [math.sqrt((n - v) * (v + 1)) for v in range(n + 1)]


def operator_diagonal(rep: GentileRep, choice: DiagonalChoice) -> np.ndarray:
    """A's diagonal on |0>..|n> from the ladder amplitudes; a_dag a and
    a a_dag are |amp|^2 = re^2 + im^2, real, shifted down or up."""
    if choice is DiagonalChoice.NUM:
        return np.arange(rep.dim, dtype=complex)
    if choice in (DiagonalChoice.ADAG_B, DiagonalChoice.BDAG_A):
        adag_b, bdag_a, _, _ = rep.quadratic_diagonals()
        return adag_b if choice is DiagonalChoice.ADAG_B else bdag_a
    amp = np.asarray(rep.amp)
    modulus = amp.real ** 2 + amp.imag ** 2
    pair = (0.0, modulus) if choice is DiagonalChoice.ADAG_A else (modulus, 0.0)
    return np.hstack(pair).astype(complex)


def _check_nodes(nodes):
    pairs = _close_pairs(nodes, NODE_SEPARATION)
    if pairs:
        i, j = pairs[0]
        # node index i corresponds to state |i+1>
        raise DegenerateNodes((i + 1, j + 1), abs(nodes[i] - nodes[j]))


def leja_order(nodes):
    """Indices of distinct ``nodes`` in Leja order: first the node of
    largest modulus, then each time the node with the largest sum of log
    distances to the nodes already taken, the lowest index on a tie."""
    x = np.asarray(nodes, dtype=complex)
    with np.errstate(divide="ignore"):
        # log 0 = -inf on the diagonal rules a node out once it is taken
        log_distance = np.log(np.abs(x[:, None] - x))
    order = [int(np.argmax(np.abs(x)))]
    score = np.zeros(len(x))
    for _ in range(len(x) - 1):
        score += log_distance[order[-1]]
        order.append(int(np.argmax(score)))
    return order


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
    better conditioned here.  Nested like Horner's rule, the expansion
    stays in float range where summing the expanded basis products does
    not (A = N from n = 171 on).
    """
    coeffs = np.zeros(len(nodes), dtype=complex)
    for k in range(len(nodes) - 1, -1, -1):
        # coeffs <- coeffs * (z - x_k) + d_k
        coeffs[1:] = coeffs[:-1] - nodes[k] * coeffs[1:]
        coeffs[0] = divided[k] - nodes[k] * coeffs[0]
    return coeffs


class Su2Rep(Record):
    __slots__ = _fields = (
        "n",
        "j",
        "choice",
        "j_plus",  # tuple <nu+1|J_+|nu>, nu = 0..n-1; J_- is its adjoint
        "j_z",  # tuple <nu|J_z|nu> = nu - n/2, nu = 0..n
        # Newton-basis data of p(z) = sum_l conj(lambda_l) z^l, nodes in
        # Leja order, kept for stable residual checks (the monomial
        # lambdas are report-friendly but ill-conditioned to evaluate
        # directly for larger n)
        "nodes",
        "divided",
        # <0>_n .. <n+1>_n of the GentileRep the solve used
        "bracket_numbers",
    )


def solve_representation(n: int, choice: DiagonalChoice) -> Su2Rep:
    """Solve the raising-operator interpolation for one diagonal choice.

    J_+ = p(A) a_dag, where p interpolates c_+(nu) / <nu+1|a_dag|nu> at
    the nodes A|nu+1>; the monomial coefficients of p are
    conj(lambda_l).  Row 0 of a_dag is zero, so J_+'s band is p at the
    nodes times a_dag's.  The nodes are checked in state order, then
    divided in Leja order, which keeps the table stable (Reichel, BIT 30,
    1990).
    """
    rep = build_rep(n)
    amp = np.asarray(rep.amp)
    nodes = operator_diagonal(rep, choice)[1:].tolist()
    _check_nodes(nodes)
    targets = (np.array(ladder_targets(n)[:n]) / amp).tolist()
    order = leja_order(nodes)
    leja = [nodes[k] for k in order]
    divided = divided_differences(leja, [targets[k] for k in order])
    p = np.array([newton_eval(leja, divided, x) for x in nodes])
    return Su2Rep(n=n, j=n / 2.0, choice=choice,
                  j_plus=tuple((p * amp).tolist()),
                  j_z=tuple((np.arange(n + 1) - n / 2.0).tolist()),
                  nodes=tuple(leja), divided=tuple(divided),
                  bracket_numbers=rep.bracket_numbers)


def verify_representation(rep: Su2Rep):
    """Residuals of the su(2) relations, the Casimir identity and, for
    A = a_dag b, the printed equations (``e010``); True iff all <= TOL.

    Each relation is zero off the bands it is taken on, all O(n): J_+J_-
    and J_-J_+ are |J_+|^2 = re^2 + im^2, real, shifted down and up, and
    [J_z, J_+-] lie on the bands of J_+-.
    """
    jp, z = np.asarray(rep.j_plus), np.asarray(rep.j_z)
    jm = jp.conj()
    norm = jp.real ** 2 + jp.imag ** 2
    pm, mp = np.hstack((0.0, norm)), np.hstack((norm, 0.0))
    residuals = {
        "comm87": max_abs_diff(pm - mp, 2.0 * z),
        "comm88p": max_abs_diff(z[1:] * jp - jp * z[:-1], jp),
        "comm88m": max_abs_diff(z[:-1] * jm - jm * z[1:], -jm),
        "casimir": max_abs_diff(z * z + (pm + mp) / 2.0,
                                np.full_like(z, rep.j * (rep.j + 1.0))),
    }
    if rep.choice is DiagonalChoice.ADAG_B:
        residuals["e010"] = e010_residual(rep)
    return residuals, all(r <= TOL for r in residuals.values())


def e010_residual(rep: Su2Rep) -> float:
    """Worst deviation of the printed double-sum equations from 2 nu - n.

    Only printed for the A = a_dag b choice.  The double sum over
    (l, q) factors exactly into |<nu>| |p(<nu>)|^2 - |<nu+1>| |p(<nu+1>)|^2
    with p(z) = sum_l conj(lambda_l) z^l, so it is evaluated through the
    stable Newton form of p rather than raw monomial powers.
    """
    n = rep.n
    # |<nu>| |p(<nu>)|^2 for nu = 0..n+1, each bracket evaluated once
    terms = [abs(br) * abs(newton_eval(rep.nodes, rep.divided, br)) ** 2
             for br in rep.bracket_numbers]
    worst = 0.0
    for v in range(n + 1):
        worst = max(worst, abs(terms[v] - terms[v + 1] - (2 * v - n)))
    return worst
