"""Generalized-Grassmann coherent states."""

import cmath
import math

import numpy as np
import pytest

from _reference import (BITWISE_N, GrassmannOps, bracket_number,
                        closed_form_rows, dense_eigenstate_residual,
                        dense_ladder, lambda_value, move_relation_check)
from gentile.coherent import (LambdaChoice, build_coherent,
                              closed_form_deltas, closed_form_modulus_gap,
                              eigenstate_residual, normalization_poly)
from gentile.rep import build_rep

PRINTED_CHOICES = (LambdaChoice.ROOT_OF_UNITY_PLUS,
                   LambdaChoice.ROOT_OF_UNITY_MINUS,
                   LambdaChoice.ALTERNATING)


def test_lambda_values():
    roots = build_rep(3).roots
    assert lambda_value(LambdaChoice.ROOT_OF_UNITY_PLUS, 1, roots) \
        == pytest.approx(cmath.exp(2j * math.pi / 4))
    assert lambda_value(LambdaChoice.ALTERNATING, 2, roots) == 1.0
    assert lambda_value(LambdaChoice.ALTERNATING, 3, roots) == -1.0


@pytest.mark.parametrize("n", (1, 2, 7, 64, 1024))
def test_lambda_values_match_exponentials(n):
    # lambda(nu) = exp(+-2 pi i nu/(n+1)), read from the rep's table
    roots = build_rep(n).roots
    for v in range(n + 1):
        for choice, sign in ((LambdaChoice.ROOT_OF_UNITY_PLUS, 1),
                             (LambdaChoice.ROOT_OF_UNITY_MINUS, -1)):
            want = cmath.exp(sign * 2j * math.pi * v / (n + 1))
            assert abs(lambda_value(choice, v, roots) - want) <= 4e-15


@pytest.mark.parametrize("choice", PRINTED_CHOICES)
def test_coherent_reads_lambda_from_the_roots_table(choice):
    # the state's lambda table is lambda(nu, n) for nu = 0..n, bit for bit
    for n in BITWISE_N:
        lam = build_coherent(n, choice).lam
        roots = build_rep(n).roots
        expected = tuple(lambda_value(choice, v, roots) for v in range(n + 1))
        assert type(lam) is tuple and len(lam) == n + 1, n
        assert np.array(lam).tobytes() == np.array(expected).tobytes(), n


@pytest.mark.parametrize("n", (1, 2, 7, 40))
@pytest.mark.parametrize("sign", (1, -1, 0))
def test_closed_form_deltas_match_exponentials(n, sign):
    # the printed closed form with every phase as an exponential
    want = [1 + 0j]
    denominator = 1 + 0j
    q = cmath.exp(2j * math.pi / (n + 1))
    for v in range(1, n + 1):
        phase = (complex((-1) ** ((v - 1) * v // 2)) if sign == 0 else
                 cmath.exp(sign * 1j * math.pi * v * (v - 1) / (n + 1)))
        denominator *= cmath.sqrt(1 - cmath.exp(2j * math.pi * v / (n + 1)))
        want.append(phase * (1 - q) ** (v / 2) / denominator)
    got = closed_form_deltas(build_rep(n).roots, sign)
    for g, w in zip(got, want, strict=True):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


def test_fermi_case_delta():
    # n=1, alternating lambda: delta = [1, 1] (the printed Fermi-case state)
    state = build_coherent(1, LambdaChoice.ALTERNATING)
    assert state.delta[0] == 1.0
    assert abs(state.delta[1] - 1.0) <= 1e-15
    assert eigenstate_residual(state) <= 1e-15


def test_delta_recursion_invariant():
    # delta(v+1) sqrt(<v+1>) = delta(v) lambda(v) is the defining recursion
    for n in (2, 5, 9):
        for choice in PRINTED_CHOICES:
            state = build_coherent(n, choice)
            for v in range(n):
                amp = cmath.sqrt(bracket_number(n, v + 1))
                lhs = state.delta[v + 1] * amp
                rhs = state.delta[v] * lambda_value(choice, v,
                                                    state.rep.roots)
                assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("choice", PRINTED_CHOICES)
def test_eigenstate_residual(n, choice):
    state = build_coherent(n, choice)
    assert eigenstate_residual(state) <= 1e-12


@pytest.mark.parametrize("choice", PRINTED_CHOICES)
def test_eigenstate_residual_matches_dense_element_bitwise(choice):
    # the band residual is the residual of the module actions on the
    # dense element with delta on its diagonal, bit for bit
    for n in BITWISE_N:
        state = build_coherent(n, choice)
        residual = eigenstate_residual(state)
        assert np.float64(residual).tobytes() \
            == np.float64(dense_eigenstate_residual(state)).tobytes(), n


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("choice", PRINTED_CHOICES)
def test_closed_form_modulus(n, choice):
    # closed form and recursion agree up to a per-nu sign (branch artifact)
    state = build_coherent(n, choice)
    for _, rec, closed, rel, modulus_gap in closed_form_rows(state):
        assert modulus_gap <= 1e-12
        assert rel in (1, -1)
        assert min(abs(closed - rec), abs(closed + rec)) <= 1e-12


@pytest.mark.parametrize("choice", PRINTED_CHOICES)
def test_closed_form_modulus_gap_is_the_rows_largest(choice):
    # the library keeps only the largest gap of the reference rows, bit
    # for bit
    for n in range(1, 129):
        state = build_coherent(n, choice)
        gap = max(row[4] for row in closed_form_rows(state))
        assert np.float64(closed_form_modulus_gap(state)).tobytes() \
            == np.float64(gap).tobytes(), n


@pytest.mark.parametrize("n", (1, 3, 6))
def test_move_relations(n):
    for choice in PRINTED_CHOICES:
        for power in range(n + 1):
            residuals = move_relation_check(n, choice, power)
            assert set(residuals) == {"psi_bdag", "psi_adag", "b_psi",
                                      "a_psi"}
            assert max(residuals.values()) <= 1e-12


def test_normalization_poly():
    state = build_coherent(3, LambdaChoice.ROOT_OF_UNITY_PLUS)
    poly = normalization_poly(state)
    assert poly[0] == 1.0
    assert len(poly) == 4
    assert all(c >= 0.0 for c in poly)


def test_grassmann_truncation():
    # psi^(n+1) = 0: raising the psi power past n annihilates the element
    n = 2
    ops = GrassmannOps(n, LambdaChoice.ROOT_OF_UNITY_PLUS)
    e = np.zeros((n + 1, n + 1), dtype=complex)
    e[0, n] = 1.0  # |0> psi^n
    assert np.max(np.abs(ops.apply_psi(e))) == 0.0


@pytest.mark.parametrize("n", (1, 2, 5, 16))
@pytest.mark.parametrize("choice", PRINTED_CHOICES)
def test_ladder_actions_match_rep_matrices(n, choice):
    # the b action is the rep matrix acting on the state index, on single
    # elements and on stacks of them
    ops = GrassmannOps(n, choice)
    rng = np.random.default_rng(n)
    shape = (3, n + 1, n + 1)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    _, b, _ = dense_ladder(ops.rep)
    assert np.max(np.abs(ops.apply_b(c) - b @ c)) <= 1e-13
    assert np.max(np.abs(ops.apply_b(c[0]) - b @ c[0])) <= 1e-13
