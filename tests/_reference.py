"""Paper relations and references that only the tests evaluate.

Each paper relation restates an equation of the paper directly on the
``build_rep`` matrices, so a test can hold the library to it.  The scan
references are the all-pairs loops that the library's sorted sweeps
replaced; the sweeps must give exactly their results.  None takes input
checks: tests call them only with valid arguments.
"""

import cmath
import math

import numpy as np

from gentile.coherent import GrassmannOps
from gentile.linalg import max_abs_diff
from gentile.oscillator import (CLUSTER_TOL, _case_levels,
                                _prose_multiplicity, build_hamiltonian,
                                case_class, per_state_energy)
from gentile.rep import build_rep
from gentile.su2 import NODE_SEPARATION, newton_eval


def bracket_number(n: int, v: int) -> complex:
    """The bracket number <v>_n = sum_{j=0}^{v-1} exp(i*2*pi*j/(n+1)).

    Computed as the finite geometric sum rather than the ratio form, so
    v = 0 is exactly the int 0 and there is no 0/0 anywhere.
    """
    theta = 2.0 * math.pi / (n + 1)
    return sum(cmath.exp(1j * theta * j) for j in range(v))


def ladder_commutation_check(n: int, tol: float = 1e-12):
    """Residuals of [H, x] = f(N-1) x = x f(N) for x in {adag, a, bdag, b}.

    f is +/- cos(2 pi . /(n+1)) with the sign of the relation.  Returns a
    dict relation -> (left-ordered residual, right-ordered residual) plus
    the overall pass flag.
    """
    rep = build_rep(n)
    h = build_hamiltonian(n)
    cos_n = np.diag([math.cos(2 * math.pi * v / (n + 1))
                     for v in range(rep.dim)])
    cos_nm1 = np.diag([math.cos(2 * math.pi * (v - 1) / (n + 1))
                       for v in range(rep.dim)])
    cases = {
        "adag": (rep.a_dag, +1),
        "a": (rep.a, -1),
        "bdag": (rep.b_dag, +1),
        "b": (rep.b, -1),
    }
    residuals = {}
    for name, (x, sign) in cases.items():
        comm = h @ x - x @ h
        if sign > 0:
            left = max_abs_diff(comm, cos_nm1 @ x)
            right = max_abs_diff(comm, x @ cos_n)
        else:
            left = max_abs_diff(comm, -(cos_n @ x))
            right = max_abs_diff(comm, -(x @ cos_nm1))
        residuals[name] = (left, right)
    passed = all(max(pair) <= tol for pair in residuals.values())
    return residuals, passed


def move_relation_check(n: int, choice, power: int):
    """Residuals of the four psi move relations at the given power.

    Relations checked (as module transformations, on every basis element):
    psi bdag^p, psi adag^p, b^p psi, a^p psi, each against
    (lambda(p)/lambda(0)) times the reordered side.  A ladder operator
    acts on the state index of a module element as ``rep.X @ e``.
    """
    ops = GrassmannOps(n, choice)
    rep = ops.rep
    ratio = ops.lam[power] / ops.lam[0]
    residuals = {}
    for name, x, psi_left in (("psi_bdag", rep.b_dag, True),
                              ("psi_adag", rep.a_dag, True),
                              ("b_psi", rep.b, False),
                              ("a_psi", rep.a, False)):
        x_power = np.linalg.matrix_power(x, power)
        worst = 0.0
        for k in range(n + 1):
            # the basis elements |nu> psi^k, nu = 0..n, stacked on axis 0
            e = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
            e[range(n + 1), range(n + 1), k] = 1.0
            psi_x = ops.apply_psi(x_power @ e)
            x_psi = x_power @ ops.apply_psi(e)
            lhs, rhs = (psi_x, x_psi) if psi_left else (x_psi, psi_x)
            worst = max(worst, float(np.max(np.abs(lhs - ratio * rhs))))
        residuals[name] = worst
    return residuals


# -- all-pairs scans that the sorted sweeps replaced --------------------------


def spectrum_clustering(n: int):
    """Levels and degeneracy discrepancies of ``closed_form_spectrum``,
    counting each level's multiplicity by a scan over every state."""
    raw_levels, _ = _case_levels(n)
    per_state = [per_state_energy(n, v) for v in range(n + 1)]
    unique = []
    for e in sorted(raw_levels):
        if not unique or abs(e - unique[-1]) > CLUSTER_TOL:
            unique.append(e)
    levels = []
    for e in unique:
        mult = sum(1 for x in per_state if abs(x - e) <= CLUSTER_TOL)
        levels.append((e, mult))
    cls = case_class(n)
    discrepancies = []
    for idx, (_, mult) in enumerate(levels):
        claimed = _prose_multiplicity(cls, idx, len(levels))
        if mult != claimed:
            discrepancies.append((idx, mult, claimed))
    return tuple(levels), tuple(discrepancies)


def first_close_nodes(nodes):
    """``(pair, separation)`` that ``su2._check_nodes`` raises for, from a
    scan of all pairs in order, or None when the nodes are distinct."""
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            sep = abs(nodes[i] - nodes[j])
            if sep <= NODE_SEPARATION:
                return (i + 1, j + 1), sep
    return None


def arcsin_collisions(diag_m):
    """Collision pairs of ``number_from_arcsin`` from a scan of all pairs."""
    collisions = []
    for v in range(len(diag_m)):
        for w in range(v + 1, len(diag_m)):
            if abs(diag_m[v] - diag_m[w]) <= 1e-9:
                collisions.append((v, w))
    return tuple(collisions)


def e010_residual_by_pairs(rep):
    """``su2.e010_residual`` evaluating p at every inner bracket twice."""
    n = rep.n
    brackets = rep.bracket_numbers
    worst = 0.0
    for v in range(n + 1):
        lo = newton_eval(rep.nodes, rep.divided, brackets[v])
        hi = newton_eval(rep.nodes, rep.divided, brackets[v + 1])
        total = abs(brackets[v]) * abs(lo) ** 2 \
            - abs(brackets[v + 1]) * abs(hi) ** 2
        worst = max(worst, abs(total - (2 * v - n)))
    return worst
