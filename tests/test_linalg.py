"""The reference Jacobi eigensolver and spectral functions, with numpy as
the test oracle, and the residuals ``linalg.max_abs_diff`` (row by row)
and ``max_abs_diff`` (one matrix)."""

import math
import warnings

import numpy as np
import pytest

from _reference import (DomainError, NoConvergence, NotHermitian, NotSquare,
                        hermitian_eigen, matrix_function, max_abs_diff)
from gentile import linalg


def _random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def test_max_abs_diff():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert max_abs_diff(a, a) == 0.0
    assert max_abs_diff(a, a + 1e-3) == pytest.approx(1e-3)
    # the library's, row by row over the slots inside only, as Python
    # floats
    inside = np.array([[True, False], [True, True]])
    b = a + np.array([[1e-3, 5.0], [0.0, -2e-3]])
    assert linalg.max_abs_diff(a, a, inside) == [0.0, 0.0]
    assert linalg.max_abs_diff(a, b, inside) \
        == [max_abs_diff(a[0, :1], b[0, :1]), max_abs_diff(a[1], b[1])]
    b[1, 0] = math.nan
    b[0, 1] = math.nan
    worst = linalg.max_abs_diff(a, b, inside)
    assert worst[0] == pytest.approx(1e-3) and math.isnan(worst[1])
    assert all(type(x) is float for x in worst)


def test_eigen_diagonal_matrix():
    w, u = hermitian_eigen(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    assert max_abs_diff(u @ u.conj().T, np.eye(3)) <= 1e-13


def test_eigen_known_2x2():
    # eigenvalues of [[0, 1], [1, 0]] are -1, 1 (Pauli x)
    w, u = hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_eigen_against_numpy(dim):
    rng = np.random.default_rng(7 + dim)
    m = _random_hermitian(rng, dim)
    w, u = hermitian_eigen(m)
    oracle = np.sort(np.linalg.eigvalsh(m))
    assert max_abs_diff(np.asarray(w), oracle) <= 1e-12 * max(1.0, dim)
    # reconstruction and unitarity
    assert max_abs_diff(u @ np.diag(w) @ u.conj().T, m) <= 1e-12 * dim
    assert max_abs_diff(u @ u.conj().T, np.eye(dim)) <= 1e-12 * dim


def test_eigen_ascending_order():
    rng = np.random.default_rng(3)
    w, _ = hermitian_eigen(_random_hermitian(rng, 12))
    assert all(w[i] <= w[i + 1] for i in range(len(w) - 1))


def test_not_hermitian_raises():
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotSquare):
        hermitian_eigen(np.zeros((2, 3), dtype=complex))


def test_empty_matrix():
    w, u = hermitian_eigen(np.zeros((0, 0)))
    assert w.shape == (0,) and u.shape == (0, 0)
    assert matrix_function(np.zeros((0, 0)), math.asin,
                           domain=(-1.0, 1.0)).shape == (0, 0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entry_is_not_hermitian(bad):
    # NaN compares False with every bound, so the checks must be written
    # as "not within" rather than "beyond"
    m = np.array([[bad, 0.5], [0.5, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        hermitian_eigen(m)
    with pytest.raises(NotHermitian):
        matrix_function(m, math.asin, domain=(-1.0, 1.0))


def test_matrix_function_domain_rejects_nan_eigenvalue(monkeypatch):
    monkeypatch.setattr("_reference.hermitian_eigen",
                        lambda m, tol: (np.array([0.0, math.nan]),
                                        np.eye(2, dtype=complex)))
    with pytest.raises(DomainError):
        matrix_function(np.eye(2), math.asin, domain=(-1.0, 1.0))


def test_entries_near_float_max_raise_domain_error():
    # (m + m^H) / 2 and the rotations would overflow to inf eigenvalues
    m = np.array([[1e308, 1e308], [1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            hermitian_eigen(m)
        w, _ = hermitian_eigen(m / 1e8)
    assert np.allclose(w, [-math.sqrt(2) * 1e300, math.sqrt(2) * 1e300])


def test_no_convergence_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(NoConvergence):
        hermitian_eigen(_random_hermitian(rng, 8), max_sweeps=1)


def test_matrix_function_exp():
    rng = np.random.default_rng(11)
    m = _random_hermitian(rng, 6)
    result = matrix_function(m, math.exp)
    w, u = np.linalg.eigh(m)
    oracle = u @ np.diag(np.exp(w)) @ u.conj().T
    assert max_abs_diff(result, oracle) <= 1e-11


def test_matrix_function_domain_clipping():
    # eigenvalue 1 + tiny rounding excursion is clipped into [-1, 1]
    m = np.diag([1.0 + 1e-14, -1.0]).astype(complex)
    result = matrix_function(m, math.asin, domain=(-1.0, 1.0))
    assert abs(result[0, 0] - math.pi / 2) <= 1e-7


def test_matrix_function_domain_error():
    m = np.diag([2.0, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        matrix_function(m, math.asin, domain=(-1.0, 1.0))
