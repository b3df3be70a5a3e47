"""Paper relations and references that only the tests evaluate.

Each paper relation restates an equation of the paper directly on the
``build_rep`` matrices, so a test can hold the library to it.  The scan
references are the all-pairs loops that the library's sorted sweeps
replaced; the sweeps must give exactly their results.  The dense
references are the matrix routes that the library's band routes
replaced, down to the Jacobi eigensolver; the bands must give exactly
their bits.  The su(2) references solve on numpy scalars, one entry at a
time, and verify by nine dense products; the library must give exactly
their bits.  Only the eigensolver checks its input: the others are
called only with valid arguments.
"""

import cmath
import math
import sys

import numpy as np

from gentile.coherent import GrassmannOps
from gentile.errors import (DimensionMismatch, DomainError, GentileError,
                            NotHermitian)
from gentile.linalg import max_abs_diff
from gentile.oscillator import (CLUSTER_TOL, _case_levels,
                                _prose_multiplicity, build_hamiltonian,
                                case_class, per_state_energy)
from gentile.rep import build_rep
from gentile.su2 import (NODE_SEPARATION, TOL, DiagonalChoice, Su2Rep,
                         diagonal_operator, ladder_targets)


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
    h = np.diag(build_hamiltonian(n))
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
        lo = scalar_newton_eval(rep.nodes, rep.divided, brackets[v])
        hi = scalar_newton_eval(rep.nodes, rep.divided, brackets[v + 1])
        total = abs(brackets[v]) * abs(lo) ** 2 \
            - abs(brackets[v + 1]) * abs(hi) ** 2
        worst = max(worst, abs(total - (2 * v - n)))
    return worst


# -- the Jacobi eigensolver and the dense routes the bands replaced -----------

# the n at which tests hold each band route to its dense reference bit for bit
BITWISE_N = (*range(1, 129), 256, 512, 1024)
JACOBI_TOL = 1e-10
MAX_SWEEPS = 100


class NoConvergence(GentileError):
    pass


def _check_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not dev <= tol:  # a NaN or infinite entry makes dev NaN
        raise NotHermitian(f"max |m - m^H| = {dev:.3e} exceeds tol {tol:.3e}")
    return m


def hermitian_eigen(m: np.ndarray, tol: float = JACOBI_TOL,
                    max_sweeps: int = MAX_SWEEPS):
    """Eigenvalues (ascending) and unitary eigenbasis of a Hermitian matrix.

    Cyclic Jacobi with threshold pivoting.  Returns ``(w, u)`` with
    ``m = u @ diag(w) @ u^H`` up to the documented residual bound.

    Every intermediate is bounded by 2 * dim * max|m|, so entries above
    float max / (2 * dim) raise DomainError instead of overflowing.
    """
    m = _check_hermitian(m, tol)
    dim = m.shape[0]
    if dim == 0:
        return np.empty(0), np.empty((0, 0), dtype=complex)
    biggest = float(np.max(np.abs(m)))
    limit = sys.float_info.max / (2 * dim)
    if biggest > limit:
        raise DomainError(
            f"entry of modulus {biggest:.3e} would overflow the Jacobi "
            f"iteration (limit {limit:.3e} at dimension {dim})")
    a = (m + m.conj().T) / 2.0
    u = np.eye(dim, dtype=complex)
    if dim == 1:
        return np.array([a[0, 0].real]), u

    scale = float(np.max(np.abs(a))) or 1.0
    stop = 1e-15 * scale * dim

    for _ in range(max_sweeps):
        off = float(np.max(np.abs(np.triu(a, 1))))
        if off <= stop:
            break
        # one cyclic sweep; skip pivots already below threshold
        threshold = max(off / dim, stop)
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                mag = abs(apq)
                if mag < stop or mag < threshold * 1e-4:
                    continue
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # unitary plane rotation in the (p, q) plane
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(phase) * col_q
                a[:, q] = -s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + s * phase * row_q
                a[q, :] = -s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                ucol_p = u[:, p].copy()
                ucol_q = u[:, q].copy()
                u[:, p] = c * ucol_p + s * np.conj(phase) * ucol_q
                u[:, q] = -s * phase * ucol_p + c * ucol_q
    else:
        # final check: the loop may have exhausted sweeps exactly at convergence
        off = float(np.max(np.abs(np.triu(a, 1))))
        if off > stop:
            raise NoConvergence(
                f"Jacobi iteration did not converge in {max_sweeps} sweeps "
                f"(off-diagonal max {off:.3e})")

    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    return w[order], u[:, order]


def matrix_function(m: np.ndarray, f, tol: float = JACOBI_TOL,
                    domain=None) -> np.ndarray:
    """Spectral function f(m) = U f(Lambda) U^H of a Hermitian matrix.

    ``domain`` is an optional (lo, hi) interval; eigenvalues outside it by
    more than ``tol`` raise DomainError, marginal ones are clipped.
    """
    w, u = hermitian_eigen(m, tol)
    if domain is not None:
        lo, hi = domain
        if not (np.all(w >= lo - tol) and np.all(w <= hi + tol)):
            raise DomainError(
                f"eigenvalue outside domain [{lo}, {hi}] by more than {tol}")
        w = np.clip(w, lo, hi)
    fw = np.array([f(x) for x in w], dtype=complex)
    return u @ np.diag(fw) @ u.conj().T


def dense_sine_matrix(rep):
    """M = (i/2)(a^dag b - b^dag a + a b^dag - b a^dag), by BLAS products."""
    return 0.5j * (rep.a_dag @ rep.b - rep.b_dag @ rep.a
                   + rep.a @ rep.b_dag - rep.b @ rep.a_dag)


def dense_arcsin_values(rep):
    """Diagonal of ((n+1)/2pi) arcsin(M) by the Jacobi spectral function."""
    rec = (rep.n + 1) / (2.0 * math.pi) * matrix_function(
        dense_sine_matrix(rep), math.asin, 1e-12, domain=(-1.0, 1.0))
    return np.real(np.diag(rec))


def dense_eigenstate_residual(state):
    """Max-abs coefficient of b|psi> - psi|psi> on the dense module element
    with delta on its diagonal."""
    element = np.diag(state.delta)
    lhs = state.ops.apply_b(element)
    rhs = state.ops.apply_psi(element)
    return float(np.max(np.abs(lhs - rhs)))


# -- the su(2) solve on numpy scalars and its nine-product check --------------

# the n at which tests hold the su(2) solve and check to these bit for bit
SU2_BITWISE_N = (*range(1, 129), 256)


def scalar_divided_differences(nodes, values):
    """Newton divided-difference table d_0 .. d_(m-1) over distinct nodes."""
    m = len(nodes)
    divided = list(values)
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) \
                / (nodes[i] - nodes[i - level])
    return divided


def scalar_newton_eval(nodes, divided, z: complex) -> complex:
    """Horner evaluation of the interpolant in the Newton basis."""
    acc = complex(divided[-1])
    for k in range(len(divided) - 2, -1, -1):
        acc = acc * (z - nodes[k]) + divided[k]
    return acc


def scalar_solve(n: int, choice):
    """``Su2Rep`` and p at A's diagonal, with the nodes and the
    divided-difference table as numpy complex128 scalars."""
    rep = build_rep(n)
    a_matrix = diagonal_operator(rep, choice)
    nodes = [a_matrix[v, v] for v in range(1, rep.dim)]
    c_plus = ladder_targets(n)
    divided = scalar_divided_differences(
        nodes, [c_plus[v] / rep.a_dag[v + 1, v] for v in range(n)])
    p = [scalar_newton_eval(nodes, divided, a) for a in a_matrix.diagonal()]
    j_plus = np.array(p)[:, None] * rep.a_dag
    su2 = Su2Rep(n=n, j=n / 2.0, choice=choice,
                 j_plus=j_plus, j_minus=j_plus.conj().T,
                 j_z=rep.num - (n / 2.0) * np.eye(n + 1),
                 nodes=tuple(nodes), divided=tuple(divided),
                 bracket_numbers=rep.bracket_numbers)
    return su2, p


def dense_verify_representation(rep):
    """``su2.verify_representation`` by nine dense products, each residual
    a Python float."""
    jp, jm, jz = rep.j_plus, rep.j_minus, rep.j_z
    eye = np.eye(jp.shape[0])
    residuals = {
        "comm87": max_abs_diff(jp @ jm - jm @ jp, 2.0 * jz),
        "comm88p": max_abs_diff(jz @ jp - jp @ jz, jp),
        "comm88m": max_abs_diff(jz @ jm - jm @ jz, -jm),
        "casimir": max_abs_diff(
            jz @ jz + (jp @ jm + jm @ jp) / 2.0,
            rep.j * (rep.j + 1.0) * eye),
    }
    if rep.choice is DiagonalChoice.ADAG_B:
        residuals["e010"] = float(e010_residual_by_pairs(rep))
    return residuals, all(r <= TOL for r in residuals.values())
