"""su(2) representations from Gentile ladder operators."""

import dataclasses

import numpy as np
import pytest

from _reference import (SU2_BITWISE_N, bracket_number,
                        dense_verify_representation, e010_residual_by_pairs,
                        first_close_nodes, scalar_solve)
from gentile.errors import DegenerateNodes, OutOfRange, WrongChoice
from gentile.linalg import max_abs_diff
from gentile.rep import build_rep
from gentile.su2 import (DiagonalChoice, diagonal_operator,
                         divided_differences, e010_residual, ladder_targets,
                         _check_nodes, newton_coefficients, newton_eval,
                         solve_representation, verify_representation)

SOLVABLE = (DiagonalChoice.NUM, DiagonalChoice.ADAG_B, DiagonalChoice.BDAG_A)


def test_ladder_targets_oracle():
    # c_+(v) = sqrt((n-v)(v+1)); n=2 gives [sqrt(2), sqrt(2), 0]
    targets = ladder_targets(2)
    assert targets == pytest.approx([np.sqrt(2), np.sqrt(2), 0.0])
    with pytest.raises(OutOfRange):
        ladder_targets(0)


def test_ladder_targets_telescoping():
    # c_+(v-1)^2 - c_+(v)^2 = 2v - n, consistent with sum(2v - n) = 0
    for n in (3, 8):
        c = ladder_targets(n)
        for v in range(1, n + 1):
            assert c[v - 1] ** 2 - c[v] ** 2 == pytest.approx(2 * v - n)


def test_diagonal_operator_commutes_with_num():
    rep = build_rep(5)
    for choice in DiagonalChoice:
        a = diagonal_operator(rep, choice)
        assert max_abs_diff(a @ rep.num, rep.num @ a) <= 1e-12


def test_newton_interpolation_exactness():
    nodes = [1.0 + 0j, 2.0 + 1j, -1.0 - 1j, 0.5j]
    values = [3.0 + 0j, -1j, 2.0 + 2j, 0j]
    divided = divided_differences(nodes, values)
    coeffs = newton_coefficients(nodes, divided)
    for node, value in zip(nodes, values):
        assert abs(newton_eval(nodes, divided, node) - value) <= 1e-12
        assert abs(sum(c * node ** k for k, c in enumerate(coeffs))
                   - value) <= 1e-10


def test_n1_pauli_oracle():
    rep = solve_representation(1, DiagonalChoice.NUM)
    assert max_abs_diff(rep.j_plus, np.array([[0, 0], [1, 0]])) <= 1e-14
    assert max_abs_diff(rep.j_z, np.diag([-0.5, 0.5])) <= 1e-14


def test_jz_eigenvalues():
    rep = solve_representation(6, DiagonalChoice.ADAG_B)
    assert np.allclose(np.diag(rep.j_z).real, np.arange(7) - 3.0)


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("choice", SOLVABLE)
def test_representations_verify(n, choice):
    rep = solve_representation(n, choice)
    residuals, ok = verify_representation(rep)
    assert ok, residuals
    assert rep.j == n / 2.0


def _dense_horner_j_plus(rep):
    """Reference J_+: p(A) a_dag by dense Newton-basis Horner products."""
    grep = build_rep(rep.n)
    a_matrix = diagonal_operator(grep, rep.choice)
    eye = np.eye(grep.dim, dtype=complex)
    poly = rep.divided[-1] * eye
    for k in range(len(rep.divided) - 2, -1, -1):
        poly = poly @ (a_matrix - rep.nodes[k] * eye) + rep.divided[k] * eye
    return poly @ grep.a_dag


@pytest.mark.parametrize("choice", DiagonalChoice)
def test_j_plus_matches_dense_horner(choice):
    eps = np.finfo(float).eps
    for n in range(1, 17):
        try:
            rep = solve_representation(n, choice)
        except DegenerateNodes:
            continue
        reference = _dense_horner_j_plus(rep)
        assert max_abs_diff(rep.j_plus, reference) \
            <= 64 * eps * np.max(np.abs(reference)), n


def test_interpolation_defining_system():
    # sum_l conj(lambda_l) node(v+1)^l sqrt(<v+1>) = c_+(v)
    n = 6
    rep = solve_representation(n, DiagonalChoice.ADAG_B)
    grep = build_rep(n)
    c = ladder_targets(n)
    for v in range(n):
        node = bracket_number(n, v + 1)
        value = newton_eval(rep.nodes, rep.divided, node)
        assert abs(value * grep.a_dag[v + 1, v] - c[v]) <= 1e-10


@pytest.mark.parametrize("n", range(1, 17))
def test_e010_residual(n):
    rep = solve_representation(n, DiagonalChoice.ADAG_B)
    assert e010_residual(rep) <= 1e-9


@pytest.mark.parametrize("n", range(1, 35))
def test_e010_residual_matches_two_evaluations_per_bracket(n):
    rep = solve_representation(n, DiagonalChoice.ADAG_B)
    assert e010_residual(rep) == e010_residual_by_pairs(rep)


@pytest.mark.parametrize("choice", list(DiagonalChoice))
def test_check_nodes_matches_all_pairs_scan(choice):
    raised = 0
    for n in range(1, 129):
        a_matrix = diagonal_operator(build_rep(n), choice)
        nodes = [a_matrix[v, v] for v in range(1, n + 1)]
        expected = first_close_nodes(nodes)
        try:
            _check_nodes(nodes)
            outcome = None
        except DegenerateNodes as exc:
            outcome = exc.pair, exc.separation
            raised += 1
        assert outcome == expected, n
    # a_dag a collides from n = 2 on and a a_dag from n = 4 on
    assert raised == {DiagonalChoice.ADAG_A: 127,
                      DiagonalChoice.A_ADAG: 125}.get(choice, 0)


def test_solvers_carry_bracket_numbers():
    # e010_residual reads the bracket numbers of the rep the solve built
    brackets = build_rep(5).bracket_numbers
    assert solve_representation(5, DiagonalChoice.ADAG_B).bracket_numbers \
        == brackets


def test_e010_wrong_choice():
    rep = solve_representation(3, DiagonalChoice.NUM)
    with pytest.raises(WrongChoice):
        e010_residual(rep)


@pytest.mark.parametrize("n", range(2, 17))
def test_degenerate_nodes_adag_a(n):
    # |<v>| = |<n+1-v>| forces a collision for every n >= 2
    with pytest.raises(DegenerateNodes) as exc_info:
        solve_representation(n, DiagonalChoice.ADAG_A)
    v, w = exc_info.value.pair
    assert v + w == n + 1
    assert abs(abs(bracket_number(n, v)) - abs(bracket_number(n, w))) <= 1e-12


@pytest.mark.parametrize("n", range(4, 17))
def test_degenerate_nodes_a_adag(n):
    # nodes are |<v+1>| on states 1..n, so collisions start at n = 4
    with pytest.raises(DegenerateNodes) as exc_info:
        solve_representation(n, DiagonalChoice.A_ADAG)
    v, w = exc_info.value.pair
    assert (v + 1) + (w + 1) == n + 1


@pytest.mark.parametrize("n", (2, 3))
def test_a_adag_solvable_below_n4(n):
    # deviation from the spec prose: aa_dag nodes |<2>|..|<n+1>| are
    # pairwise distinct at n = 2, 3, so the interpolation goes through
    rep = solve_representation(n, DiagonalChoice.A_ADAG)
    _, ok = verify_representation(rep)
    assert ok


def test_mutation_perturbed_lambda_fails():
    # mutation test: nudging the constant interpolation coefficient by 0.1
    # must break verification
    rep = solve_representation(4, DiagonalChoice.ADAG_B)
    grep = build_rep(4)
    j_plus = rep.j_plus + 0.1 * grep.a_dag
    mutated = dataclasses.replace(rep, j_plus=j_plus,
                                  j_minus=j_plus.conj().T)
    _, ok = verify_representation(mutated)
    assert not ok


@pytest.mark.parametrize("n", (1, 4, 16))
def test_mutation_off_band_entry_fails(n):
    # the checks cover every entry of J_+ and J_-, not only their bands
    rep = solve_representation(n, DiagonalChoice.NUM)
    j_plus = rep.j_plus.copy()
    j_plus[0, n] = 0.1
    mutated = dataclasses.replace(rep, j_plus=j_plus,
                                  j_minus=j_plus.conj().T)
    residuals, ok = verify_representation(mutated)
    assert not ok
    assert residuals["comm88p"] > 0.1 and residuals["comm88m"] > 0.1


def test_lambdas_solved_on_first_use():
    rep = solve_representation(6, DiagonalChoice.ADAG_B)
    assert "lambdas" not in vars(rep)
    expected = tuple(np.conj(newton_coefficients(rep.nodes, rep.divided)))
    assert rep.lambdas == expected
    assert rep.lambdas is rep.lambdas


@pytest.mark.parametrize("choice", list(DiagonalChoice))
def test_solve_and_verify_match_scalar_route_bitwise(choice):
    # the Newton data on Python complex and the two-product check give the
    # bits of the numpy-scalar solve and the nine dense products
    solved = 0
    for n in SU2_BITWISE_N:
        try:
            rep = solve_representation(n, choice)
        except DegenerateNodes:
            continue
        solved += 1
        reference, p_ref = scalar_solve(n, choice)
        diagonal = diagonal_operator(build_rep(n), choice).diagonal()
        p = [newton_eval(rep.nodes, rep.divided, a)
             for a in diagonal.tolist()]
        assert np.array(rep.divided).tobytes() \
            == np.array(reference.divided).tobytes(), n
        assert np.array(p).tobytes() == np.array(p_ref).tobytes(), n
        assert rep.j_plus.tobytes() == reference.j_plus.tobytes(), n
        residuals, ok = verify_representation(rep)
        expected, expected_ok = dense_verify_representation(reference)
        assert repr(residuals) == repr(expected), n
        assert residuals == expected and ok == expected_ok, n
    assert solved == {DiagonalChoice.ADAG_A: 1,
                      DiagonalChoice.A_ADAG: 3}.get(choice, 129)
