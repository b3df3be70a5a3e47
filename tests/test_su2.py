"""su(2) representations from Gentile ladder operators."""

import numpy as np
import pytest

from _reference import (SU2_BITWISE_N, bracket_number, dense_ladder,
                        dense_verify_representation, diagonal_operator,
                        e010_residual_by_pairs, first_close_nodes,
                        leja_shortfall, max_abs_diff, scalar_solve)
from gentile.errors import DegenerateNodes
from gentile.rep import build_rep, sweep_ladder
from gentile.su2 import (TOL, DiagonalChoice, Su2Rep, divided_differences,
                         e010_residuals, ladder_targets, leja_order,
                         _check_nodes, newton_coefficients, newton_eval,
                         operator_diagonal, solve_representation,
                         verify_representation)

SOLVABLE = (DiagonalChoice.NUM, DiagonalChoice.ADAG_B, DiagonalChoice.BDAG_A)


def _solve(n, choice):
    """The solve of the sweep of n alone: a Su2Rep or a DegenerateNodes."""
    return solve_representation([n], choice)[0]


def _verify(rep):
    return verify_representation([rep])[0]


def _diagonal(rep, choice):
    """A's diagonal on |0>..|n> of one rep."""
    return operator_diagonal(*sweep_ladder([rep]), choice)[0]


def _p(rep, points):
    """p at ``points`` from the Newton data of ``rep``."""
    return newton_eval(np.array([rep.nodes]), np.array([rep.divided]),
                       np.array([rep.n]), np.array([points], dtype=complex))[0]


def _bits(values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


def test_ladder_targets_oracle():
    # c_+(v) = sqrt((n-v)(v+1)); n=2 gives [sqrt(2), sqrt(2), 0]
    targets = ladder_targets([2])[0]
    assert targets.tolist() == pytest.approx([np.sqrt(2), np.sqrt(2), 0.0])
    # a sweep's rows are each n's, 0 beyond it
    rows = ladder_targets([1, 2, 5])
    assert rows.shape == (3, 6)
    for row, n in zip(rows, (1, 2, 5)):
        alone = ladder_targets([n])[0].tolist()
        assert row.tolist() == alone + [0.0] * (5 - n)


def test_ladder_targets_telescoping():
    # c_+(v-1)^2 - c_+(v)^2 = 2v - n, consistent with sum(2v - n) = 0
    for n in (3, 8):
        c = ladder_targets([n])[0]
        for v in range(1, n + 1):
            assert c[v - 1] ** 2 - c[v] ** 2 == pytest.approx(2 * v - n)


def test_diagonal_operator_commutes_with_num():
    # the dense products are diagonal, and the band diagonal is theirs;
    # N's is exact, and a_dag a's and a a_dag's are real
    eps = np.finfo(float).eps
    for n in (1, 5, 64):
        rep = build_rep(n)
        num = dense_ladder(rep)[2]
        for choice in DiagonalChoice:
            a = diagonal_operator(rep, choice)
            diagonal = _diagonal(rep, choice)
            assert max_abs_diff(a @ num, num @ a) <= 1e-12
            assert max_abs_diff(np.diag(diagonal), a) \
                <= 4 * eps * np.max(np.abs(a))
            if choice is DiagonalChoice.NUM:
                assert diagonal.tobytes() == a.diagonal().tobytes()
            elif choice in (DiagonalChoice.ADAG_A, DiagonalChoice.A_ADAG):
                assert not np.any(diagonal.imag)


def test_newton_interpolation_exactness():
    nodes = [1.0 + 0j, 2.0 + 1j, -1.0 - 1j, 0.5j]
    values = [3.0 + 0j, -1j, 2.0 + 2j, 0j]
    divided = divided_differences(np.array([nodes]), np.array([values]),
                                  np.array([4]))[0]
    rep = Su2Rep(n=4, j=2.0, choice=DiagonalChoice.NUM, j_plus=(), j_z=(),
                 nodes=tuple(nodes), divided=tuple(divided.tolist()),
                 bracket_numbers=())
    coeffs = newton_coefficients([rep])[0]
    for node, value, p in zip(nodes, values, _p(rep, nodes)):
        assert abs(p - value) <= 1e-12
        assert abs(sum(c * node ** k for k, c in enumerate(coeffs))
                   - value) <= 1e-10


def test_n1_pauli_oracle():
    rep = _solve(1, DiagonalChoice.NUM)
    assert max_abs_diff(np.diag(rep.j_plus, -1),
                        np.array([[0, 0], [1, 0]])) <= 1e-14
    assert max_abs_diff(rep.j_z, np.array([-0.5, 0.5])) <= 1e-14


def test_jz_eigenvalues():
    rep = _solve(6, DiagonalChoice.ADAG_B)
    assert rep.j_z == tuple((np.arange(7) - 3.0).tolist())
    assert len(rep.j_plus) == 6


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("choice", SOLVABLE)
def test_representations_verify(n, choice):
    rep = _solve(n, choice)
    residuals, ok = _verify(rep)
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
    return poly @ dense_ladder(grep)[0]


@pytest.mark.parametrize("choice", DiagonalChoice)
def test_j_plus_matches_dense_horner(choice):
    eps = np.finfo(float).eps
    for n in range(1, 17):
        rep = _solve(n, choice)
        if isinstance(rep, DegenerateNodes):
            continue
        reference = _dense_horner_j_plus(rep)
        assert max_abs_diff(np.diag(rep.j_plus, -1), reference) \
            <= 64 * eps * np.max(np.abs(reference)), n


def test_interpolation_defining_system():
    # sum_l conj(lambda_l) node(v+1)^l sqrt(<v+1>) = c_+(v)
    n = 6
    rep = _solve(n, DiagonalChoice.ADAG_B)
    a_dag = dense_ladder(build_rep(n))[0]
    c = ladder_targets([n])[0]
    values = _p(rep, [bracket_number(n, v + 1) for v in range(n)])
    for v in range(n):
        assert abs(values[v] * a_dag[v + 1, v] - c[v]) <= 1e-10


@pytest.mark.parametrize("n", range(1, 17))
def test_e010_residual(n):
    rep = _solve(n, DiagonalChoice.ADAG_B)
    assert e010_residuals([rep])[0] <= 1e-9


@pytest.mark.parametrize("n", range(1, 35))
def test_e010_residual_matches_two_evaluations_per_bracket(n):
    rep = _solve(n, DiagonalChoice.ADAG_B)
    assert e010_residuals([rep])[0] == e010_residual_by_pairs(rep)


@pytest.mark.parametrize("choice", list(DiagonalChoice))
def test_check_nodes_matches_all_pairs_scan(choice):
    raised = 0
    for n in range(1, 129):
        nodes = _diagonal(build_rep(n), choice)[1:].tolist()
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
    assert _solve(5, DiagonalChoice.ADAG_B).bracket_numbers == brackets


@pytest.mark.parametrize("n", range(2, 17))
def test_degenerate_nodes_adag_a(n):
    # |<v>| = |<n+1-v>| forces a collision for every n >= 2
    exc = _solve(n, DiagonalChoice.ADAG_A)
    assert isinstance(exc, DegenerateNodes)
    v, w = exc.pair
    assert v + w == n + 1
    assert abs(abs(bracket_number(n, v)) - abs(bracket_number(n, w))) <= 1e-12


@pytest.mark.parametrize("n", range(4, 17))
def test_degenerate_nodes_a_adag(n):
    # nodes are |<v+1>| on states 1..n, so collisions start at n = 4
    exc = _solve(n, DiagonalChoice.A_ADAG)
    assert isinstance(exc, DegenerateNodes)
    v, w = exc.pair
    assert (v + 1) + (w + 1) == n + 1


@pytest.mark.parametrize("n", (2, 3))
def test_a_adag_solvable_below_n4(n):
    # deviation from the spec prose: aa_dag nodes |<2>|..|<n+1>| are
    # pairwise distinct at n = 2, 3, so the interpolation goes through
    _, ok = _verify(_solve(n, DiagonalChoice.A_ADAG))
    assert ok


def _with_j_plus(rep, j_plus):
    """``rep`` with the band of J_+ replaced by ``j_plus``."""
    return Su2Rep(n=rep.n, j=rep.j, choice=rep.choice, j_plus=j_plus,
                  j_z=rep.j_z, nodes=rep.nodes, divided=rep.divided,
                  bracket_numbers=rep.bracket_numbers)


def test_mutation_perturbed_lambda_fails():
    # mutation test: nudging the constant interpolation coefficient by 0.1
    # must break verification
    rep = _solve(4, DiagonalChoice.ADAG_B)
    grep = build_rep(4)
    mutated = _with_j_plus(rep, tuple(
        jp + 0.1 * a for jp, a in zip(rep.j_plus, grep.amp)))
    _, ok = _verify(mutated)
    assert not ok


@pytest.mark.parametrize("n", (1, 4, 16))
def test_mutation_perturbed_band_entry_fails(n):
    # J_+ is held as its band, so it has no entry off it to perturb; one
    # band entry nudged by 0.1 moves |J_+|^2, which comm87 and the Casimir
    # see, while [J_z, J_+-] = +-J_+- holds for any band
    rep = _solve(n, DiagonalChoice.NUM)
    j_plus = list(rep.j_plus)
    j_plus[n // 2] += 0.1
    residuals, ok = _verify(_with_j_plus(rep, tuple(j_plus)))
    assert not ok
    assert residuals["comm87"] > 0.1 and residuals["casimir"] > 0.1
    assert residuals["comm88p"] <= TOL and residuals["comm88m"] <= TOL


@pytest.mark.parametrize("choice", list(DiagonalChoice))
def test_solve_and_verify_match_scalar_route_bitwise(choice):
    # the Newton data of each row of the sweep give the bits of the
    # numpy-scalar solve of its n, and the band check gives those of nine
    # dense products on J_+ expanded from its band
    reps = [rep for rep in solve_representation(SU2_BITWISE_N, choice)
            if not isinstance(rep, DegenerateNodes)]
    for rep, (residuals, ok) in zip(reps, verify_representation(reps)):
        n = rep.n
        divided, p_ref = scalar_solve(n, choice)
        p = _p(rep, _diagonal(build_rep(n), choice)[1:])
        assert _bits(rep.divided) == _bits(divided), n
        assert p.tobytes() == _bits(p_ref), n
        expected, expected_ok = dense_verify_representation(rep)
        assert repr(residuals) == repr(expected), n
        assert residuals == expected and ok == expected_ok, n
    assert len(reps) == {DiagonalChoice.ADAG_A: 1,
                         DiagonalChoice.A_ADAG: 3}.get(choice, 129)


@pytest.mark.parametrize("choice", SOLVABLE)
def test_leja_order_takes_the_farthest_node(choice):
    # near-ties are decided by rounding, so the order is held to the Leja
    # rule within a relative 1e-13 of each step's best, not to one order
    reps = [build_rep(n) for n in range(1, 129)]
    nodes = operator_diagonal(*sweep_ladder(reps), choice)[:, 1:]
    orders = leja_order(np.ascontiguousarray(nodes), np.arange(1, 129))
    for n, row, order in zip(range(1, 129), nodes, orders):
        order = order[:n].tolist()
        assert sorted(order) == list(range(n))
        assert leja_shortfall(row[:n].tolist(), order) <= 1e-13, n


def test_leja_order_breaks_exact_ties_by_lowest_index():
    # four nodes of modulus 1 tie for the start, and -1 and 1 tie at the
    # third step, each distance to 1j and -1j being hypot(1, 1); a shorter
    # row of the same sweep stops at its own count
    nodes = np.array([[0.5, 1j, -1, 1, -1j], [2.0, 0, 0, 0, 0]])
    assert leja_order(nodes[::-1].copy(), np.array([1, 5])).tolist() \
        == [[0, 0, 0, 0, 0], [1, 4, 2, 3, 0]]


def _same(a, b) -> bool:
    """Equal bit for bit: two solves, or two (residuals, ok)."""
    if isinstance(a, DegenerateNodes):
        return (type(b) is DegenerateNodes and a.pair == b.pair
                and repr(a.separation) == repr(b.separation))
    if isinstance(a, Su2Rep):
        return type(b) is Su2Rep and all(
            _bits(getattr(a, f)) == _bits(getattr(b, f))
            if f in ("j_plus", "j_z", "nodes", "divided", "bracket_numbers")
            else getattr(a, f) == getattr(b, f) for f in Su2Rep._fields)
    return repr(a) == repr(b)


@pytest.mark.parametrize("n_values", [range(1, 131), range(5, 41)],
                         ids=["1..130", "5..40"])
@pytest.mark.parametrize("choice", list(DiagonalChoice),
                         ids=lambda c: c.value)
def test_sweep_rows_equal_each_n_alone(choice, n_values):
    # every row of a sweep has the bits of its n swept alone: the solve,
    # the degenerate nodes, the residuals and the monomial coefficients
    n_values = list(n_values)
    swept = solve_representation(n_values, choice)
    reps = [r for r in swept if not isinstance(r, DegenerateNodes)]
    checks = verify_representation(reps) if reps else []
    coeffs = newton_coefficients(reps) if reps else []
    for a, b in zip(swept, [_solve(n, choice) for n in n_values],
                    strict=True):
        assert _same(a, b), a
    for rep, check, row in zip(reps, checks, coeffs, strict=True):
        assert _same(check, _verify(rep)), rep.n
        assert row[:rep.n].tobytes() \
            == newton_coefficients([rep])[0].tobytes(), rep.n
    assert len(reps) == {DiagonalChoice.ADAG_A: 1 in n_values,
                         DiagonalChoice.A_ADAG: len({1, 2, 3} & set(n_values))
                         }.get(choice, len(n_values))
