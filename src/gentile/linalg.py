"""Dense complex linear algebra: Jacobi eigensolver and spectral functions.

Matrices are plain ``numpy.ndarray`` of ``complex128``.  Dimensions here
are small (a few hundred at most), so a cyclic, threshold-pivoted Jacobi
iteration is accurate and entirely adequate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence, NotHermitian

DEFAULT_TOL = 1e-10
MAX_SWEEPS = 100


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise maximum modulus of a - b.  Exactly 0 for identical input."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _check_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not dev <= tol:  # a NaN or infinite entry makes dev NaN
        raise NotHermitian(f"max |m - m^H| = {dev:.3e} exceeds tol {tol:.3e}")
    return m


def hermitian_eigen(m: np.ndarray, tol: float = DEFAULT_TOL,
                    max_sweeps: int = MAX_SWEEPS):
    """Eigenvalues (ascending) and unitary eigenbasis of a Hermitian matrix.

    Cyclic Jacobi with threshold pivoting.  Returns ``(w, u)`` with
    ``m = u @ diag(w) @ u^H`` up to the documented residual bound.
    """
    m = _check_hermitian(m, tol)
    dim = m.shape[0]
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


def matrix_function(m: np.ndarray, f, tol: float = DEFAULT_TOL,
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
