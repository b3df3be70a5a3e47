"""Intermediate-statistics oscillator spectrum."""

import cmath
import math

import numpy as np
import pytest

from _reference import (BITWISE_N, bose_limit_check, dense_ladder,
                        hermitian_eigen, ladder_commutation_check,
                        max_abs_diff, spectrum_clustering)
from gentile.errors import GateFailed
from gentile.oscillator import (SPECTRUM_TOL, build_hamiltonian,
                                case_class, closed_form_spectrum,
                                per_state_energy, spectrum_crosscheck)
from gentile.rep import build_rep


def test_case_class():
    assert case_class(1) == "4t+1"
    assert case_class(2) == "4t+2"
    assert case_class(3) == "4t+3"
    assert case_class(4) == "4t+4"
    assert case_class(5) == "4t+1"


def test_fermi_spectrum():
    # n=1: two levels -1/2, +1/2 (paper section IV(a))
    report = closed_form_spectrum(1)
    assert [e for e, _ in report.levels] == pytest.approx([-0.5, 0.5])
    assert [m for _, m in report.levels] == [1, 1]


def test_n3_spectrum_oracle():
    # E = {0, 1, 1, 0}: two levels, both two-fold
    report = closed_form_spectrum(3)
    assert [round(e, 12) for e in report.per_state_energies] == [0, 1, 1, 0]
    assert report.levels[0] == pytest.approx((0.0, 2))
    assert report.levels[1] == pytest.approx((1.0, 2))


def test_hamiltonian_diagonal():
    n_values = (1, 2, 3, 5, 8)
    rows = build_hamiltonian([build_rep(n) for n in n_values])
    assert rows.shape == (5, 9)
    for n, h in zip(n_values, rows):
        for v in range(n + 1):
            assert abs(h[v].real - per_state_energy(n, v)) <= 1e-12
        assert not h[n + 1:].any()


def _dense_hamiltonian(n):
    """Reference: the Hamiltonian as four dense ladder-matrix products."""
    a_dag, b, _ = dense_ladder(build_rep(n))
    a, b_dag = a_dag.conj().T, b.conj().T
    alpha, beta = 1 + 0j, cmath.exp(-2j * math.pi / (n + 1))
    return (alpha * (a_dag @ b) + beta * (b @ a_dag)
            + np.conj(alpha) * (b_dag @ a)
            + np.conj(beta) * (a @ b_dag)) / 4.0


def test_hamiltonian_matches_dense_products():
    # the dense products are diagonal too, so H loses nothing off it
    eps = np.finfo(float).eps
    for n in range(1, 65):
        h = np.diag(build_hamiltonian([build_rep(n)])[0])
        ref = _dense_hamiltonian(n)
        assert h.shape == ref.shape == (n + 1, n + 1)
        assert max_abs_diff(h, ref) <= 4 * eps * np.max(np.abs(ref))


def test_eigenvalues_are_sorted_diagonal_bitwise():
    # no report prints the eigenvalues, so only this guards them: the
    # sorted real diagonal is what the Jacobi solver returns for H, and the
    # crosscheck's deviation is the one from the Jacobi eigenvalues
    rows = build_hamiltonian([build_rep(n) for n in BITWISE_N])
    for n, h, (_, deviation, report) in zip(
            BITWISE_N, rows, spectrum_crosscheck(BITWISE_N)):
        h = h[:n + 1]
        expected, _ = hermitian_eigen(np.diag(h), tol=SPECTRUM_TOL)
        assert np.sort(h.real).tobytes() == expected.tobytes(), n
        levels = sorted(e for e, m in report.levels for _ in range(m))
        assert deviation == max(abs(a - b)
                                for a, b in zip(levels, expected)), n


def test_spectrum_crosscheck_rejects_non_hermitian(monkeypatch):
    h = build_hamiltonian([build_rep(4)])
    h[0, 2] += 1e-9j
    monkeypatch.setattr("gentile.oscillator.build_hamiltonian",
                        lambda reps: h)
    with pytest.raises(GateFailed) as failed:
        spectrum_crosscheck([4])
    assert failed.value.args == (
        "NotHermitian", "max |m - m^H| = 2.000e-09 exceeds tol 1.000e-10")


def test_per_state_energy_closed_form():
    # E(v) = csc(t)[sin((2v-1)t) + sin(2t) cos(t)]/2 with t = pi/(n+1)
    for n in (2, 4, 7):
        t = math.pi / (n + 1)
        for v in range(n + 1):
            expected = (math.sin((2 * v - 1) * t)
                        + math.sin(2 * t) * math.cos(t)) / (2 * math.sin(t))
            assert abs(per_state_energy(n, v) - expected) <= 1e-13


@pytest.mark.parametrize("n", list(range(1, 17)))
def test_spectrum_crosscheck(n):
    (passed, deviation, report), = spectrum_crosscheck([n])
    assert passed, f"deviation {deviation}"
    assert sum(m for _, m in report.levels) == n + 1


def test_degeneracy_prose_agreement():
    # prose multiplicities hold in classes 4t+2, 4t+3, 4t+4 ...
    for n in (2, 3, 4, 6, 7, 8, 10, 11, 12):
        assert closed_form_spectrum(n).degeneracy_discrepancies == ()
    # ... and fail for the ground level in class 4t+1
    for n in (5, 9, 13):
        discrepancies = closed_form_spectrum(n).degeneracy_discrepancies
        assert (0, 1, 2) in discrepancies


def test_clustering_matches_all_states_scan():
    for n in [*range(1, 257), 512, 1000, 1024]:
        report = closed_form_spectrum(n)
        assert (report.levels, report.degeneracy_discrepancies) \
            == spectrum_clustering(n), n


def test_ladder_commutation():
    for n in (1, 2, 5):
        residuals, passed = ladder_commutation_check(n)
        assert passed
        assert set(residuals) == {"adag", "a", "bdag", "b"}


def test_bose_limit():
    worst_bose, worst_approx = bose_limit_check(10 ** 4, 10)
    assert worst_bose <= 1e-3
    assert worst_approx <= 1e-3


def test_bose_limit_precondition():
    with pytest.raises(ValueError, match="need v_max <= n/100"):
        bose_limit_check(100, 50)


def test_custom_coefficients_hermitian():
    # alpha=1, beta=conj(q) make H Hermitian by construction
    h = np.diag(build_hamiltonian([build_rep(4)])[0])
    assert max_abs_diff(h, h.conj().T) <= 1e-14


@pytest.mark.parametrize("n_values", [range(1, 131), range(5, 41)],
                         ids=["1..130", "5..40"])
def test_spectrum_sweep_rows_equal_each_n_alone(n_values):
    # H's diagonal and the crosscheck of each n have the bits of that n
    # swept alone
    n_values = list(n_values)
    rows = build_hamiltonian([build_rep(n) for n in n_values])
    for n, h, result in zip(n_values, rows, spectrum_crosscheck(n_values)):
        alone = build_hamiltonian([build_rep(n)])[0]
        assert h[:n + 1].tobytes() == alone.tobytes(), n
        assert repr(result) == repr(spectrum_crosscheck([n])[0]), n


def test_spectrum_gate_raises_at_the_first_non_hermitian_n(monkeypatch):
    h = build_hamiltonian([build_rep(n) for n in (2, 3, 4)])
    h[1, 1] += 3e-9j
    h[2, 0] += 1e-9j
    monkeypatch.setattr("gentile.oscillator.build_hamiltonian",
                        lambda reps: h)
    with pytest.raises(GateFailed) as failed:
        spectrum_crosscheck([2, 3, 4])
    assert failed.value.args == (
        "NotHermitian", "max |m - m^H| = 6.000e-09 exceeds tol 1.000e-10")
