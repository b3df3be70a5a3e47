"""Matrix representation of the deformed ladder algebra."""

import cmath
import math

import numpy as np
import pytest

from _reference import (BITWISE_N, arcsin_collisions, bracket_number,
                        dense_arcsin_values, dense_ladder, dense_sine_matrix,
                        densify, max_abs_diff, rep_quadratic_diagonals)
from gentile import audit
from gentile.audit import sweep_algebra
from gentile.catalog import FREE, QUOTIENT, build_catalog
from gentile.errors import GateFailed
from gentile.rep import (_sine_diagonal, build_rep, number_from_arcsin,
                         quadratic_diagonals, sweep_ladder)


def test_bracket_number_oracle_n3():
    # q = i at n=3: <1>=1, <2>=1+i, <3>=i, <4>=0 by the geometric sum
    assert bracket_number(3, 0) == 0
    assert abs(bracket_number(3, 1) - 1) <= 1e-15
    assert abs(bracket_number(3, 2) - (1 + 1j)) <= 1e-15
    assert abs(bracket_number(3, 3) - 1j) <= 1e-15
    assert abs(bracket_number(3, 4)) <= 1e-15


def test_bracket_number_fermi():
    # n=1: q=-1, <1>=1, <2>=0 — the Pauli exclusion truncation
    assert abs(bracket_number(1, 1) - 1) <= 1e-15
    assert abs(bracket_number(1, 2)) <= 1e-15


def test_build_rep_brackets_equal_bracket_number():
    # the one-pass running sums are the per-v sums, bit for bit and type
    # for type (<0>_n is the int 0)
    for n in range(1, 65):
        brackets = build_rep(n).bracket_numbers
        assert len(brackets) == n + 2
        for v, value in enumerate(brackets):
            reference = bracket_number(n, v)
            assert type(value) is type(reference)
            assert value == reference


def test_roots_table_is_the_powers_of_q():
    # roots[j] = q^j, the terms <v> sums; q and its conjugate (the
    # oscillator's beta) have the bits of the exponentials they replaced
    for n in range(1, 1025):
        rep = build_rep(n)
        roots = rep.roots
        assert type(roots) is tuple and len(roots) == n + 1
        assert rep.q == roots[1] == np.exp(2j * np.pi / (n + 1))
        assert rep.q.conjugate() == cmath.exp(-2j * math.pi / (n + 1))
        if n in (1, 2, 3, 7, 64, 1024):
            for j, value in enumerate(roots):
                want = cmath.exp(2j * math.pi * j / (n + 1))
                assert abs(value - want) <= 4e-15, (n, j)


def test_bracket_number_recursion():
    # <v+1> = 1 + q <v>, including the top wraparound <n+1> = 0
    for n in range(1, 12):
        q = cmath.exp(2j * math.pi / (n + 1))
        for v in range(n + 1):
            lhs = bracket_number(n, v + 1)
            rhs = 1 + q * bracket_number(n, v)
            assert abs(lhs - rhs) <= 1e-13


def test_defining_relation():
    for n in range(1, 25):
        a_dag, b, _ = dense_ladder(build_rep(n))
        q = cmath.exp(2j * math.pi / (n + 1))
        assert max_abs_diff(b @ a_dag - q * (a_dag @ b),
                            np.eye(n + 1)) <= 1e-12


def test_rep_structure():
    rep = build_rep(4)
    assert rep.dim == 5
    a_dag, b, _ = dense_ladder(rep)
    # a_dag strictly raises with amplitude sqrt(<v+1>)
    for v in range(4):
        amp = a_dag[v + 1, v]
        assert abs(amp ** 2 - bracket_number(4, v + 1)) <= 1e-13
    # diagonality of the quadratic combinations
    assert max_abs_diff(a_dag @ b,
                        np.diag([bracket_number(4, v) for v in range(5)])
                        ) <= 1e-12
    assert max_abs_diff(b @ a_dag,
                        np.diag([bracket_number(4, v + 1) for v in range(5)])
                        ) <= 1e-12


def test_conjugation_consistency():
    for n in (1, 2, 5, 8):
        a_dag, b, _ = dense_ladder(build_rep(n))
        a, b_dag = a_dag.conj().T, b.conj().T
        assert max_abs_diff(a_dag @ a, b_dag @ b) <= 1e-12
        assert max_abs_diff(a @ a_dag, b @ b_dag) <= 1e-12


def test_number_commutators_exact():
    a_dag, b, num = dense_ladder(build_rep(6))
    assert max_abs_diff(num @ a_dag - a_dag @ num, a_dag) <= 1e-13
    assert max_abs_diff(num @ b - b @ num, -b) <= 1e-13


def test_fermi_limit_matrices():
    a_dag, b, _ = dense_ladder(build_rep(1))
    # the bracket degenerates to the anticommutator and a coincides with b
    assert max_abs_diff(b @ a_dag + a_dag @ b, np.eye(2)) <= 1e-14
    assert max_abs_diff(a_dag.conj().T, b) <= 1e-14


def test_matrices_readonly():
    rep = build_rep(2)
    with pytest.raises(TypeError):  # a tuple
        rep.amp[0] = 1.0
    # the sweep's generator bands are shared by every fold
    alg = sweep_algebra([rep, build_rep(5)])
    for value in map(alg.gen, ("adag", "b", "N")):
        for band in value.bands.values():
            with pytest.raises(ValueError):
                band[0, ...] = 1.0


def test_ladder_matrices_are_the_dense_ladder():
    # the sweep's generators densify to each dense reference matrix, bit
    # for bit, over one sweep of n = 1..128
    reps = [build_rep(n) for n in range(1, 129)]
    alg = sweep_algebra(reps)
    gens = [densify(alg.gen(name), reps) for name in ("adag", "b", "N")]
    assert [list(alg.gen(name).bands) for name in ("adag", "b", "N")] \
        == [[-1], [1], [0]]
    for rep, *mats in zip(reps, *gens):
        for m, want in zip(mats, dense_ladder(rep)):
            assert m.dtype == complex
            assert m.tobytes() == want.tobytes(), rep.n


def test_matrices_built_once_from_amp(monkeypatch):
    rep = build_rep(5)
    assert len(rep.amp) == 5 and {type(x) for x in rep.amp} == {complex}
    amp = np.asarray(rep.amp)
    alg = sweep_algebra([rep])
    assert amp.tobytes() == alg.gen("adag").bands[-1][0, 1:].tobytes() \
        == alg.gen("b").bands[1][0, :5].tobytes()
    assert np.count_nonzero(alg.gen("adag").bands[-1]) \
        == np.count_nonzero(amp)
    # the audit builds one sweep algebra for all n, and only for a
    # QUOTIENT entry
    built = []

    def counted(reps):
        built.append([r.n for r in reps])
        return sweep_algebra(reps)

    monkeypatch.setattr(audit, "sweep_algebra", counted)
    free = [e for e in build_catalog() if e.strategy == FREE]
    audit.run_full_audit(n_values=(2, 5), trials=1, seed=0,
                         entries=free[:2])
    assert built == []
    quotient = [e for e in build_catalog() if e.strategy == QUOTIENT]
    audit.run_full_audit(n_values=(2, 5), trials=1, seed=0,
                         entries=free[:1] + quotient[:3])
    assert built == [[2, 5]]


def test_arcsin_audit_prediction():
    # principal branch: table value = ((n+1)/2pi) asin(sin(2 pi v/(n+1)))
    for n in range(1, 17):
        audit, = number_from_arcsin([build_rep(n)])
        for v, value, agrees in audit.table:
            predicted = (n + 1) / (2 * math.pi) \
                * math.asin(math.sin(2 * math.pi * v / (n + 1)))
            # asin is ill-conditioned at +/-1: rounding in the eigenvalues
            # can grow to ~sqrt(eps) in the reconstruction table
            assert abs(value - predicted) <= 1e-6
            # the flag is computed from the (condition-limited) table value,
            # so only states clearly off the prediction must be flagged
            if abs(predicted - v) > 1e-3:
                assert not agrees
            if agrees:
                assert abs(predicted - v) <= 1e-6


def test_arcsin_collisions_match_all_pairs_scan():
    for n in range(1, 257):
        rep = build_rep(n)
        expected = arcsin_collisions(
            np.real(np.diag(dense_sine_matrix(rep))).tolist())
        assert number_from_arcsin([rep])[0].collisions == expected, n


def test_sine_diagonal_matches_dense_products_bitwise():
    # the dense products are diagonal, and the band products give their
    # diagonal bit for bit
    for n in BITWISE_N:
        rep = build_rep(n)
        m = dense_sine_matrix(rep)
        assert np.count_nonzero(m - np.diag(np.diag(m))) == 0, n
        assert _sine_diagonal([rep])[0].tobytes() == np.diag(m).tobytes(), n


def test_arcsin_table_matches_jacobi_route_bitwise():
    for n in BITWISE_N:
        rep = build_rep(n)
        values = np.array([value for _, value, _ in
                           number_from_arcsin([rep])[0].table])
        assert values.tobytes() == dense_arcsin_values(rep).tobytes(), n


@pytest.mark.parametrize("shift,contract", [(2e-12j, "NotHermitian"),
                                            (-2.5, "DomainError")])
def test_arcsin_checks_sine_diagonal(monkeypatch, shift, contract):
    rep = build_rep(4)
    m = _sine_diagonal([rep]) + np.array([0, 0, shift, 0, 0])
    monkeypatch.setattr("gentile.rep._sine_diagonal", lambda reps: m)
    with pytest.raises(GateFailed) as failed:
        number_from_arcsin([rep])
    assert failed.value.args[0] == contract


def test_arcsin_clips_marginal_values(monkeypatch):
    # a value just past 1 within ARCSIN_TOL reads as asin(1)
    rep = build_rep(3)
    m = np.array([[0, 1 + 1e-14, 0, -1 - 1e-14]], dtype=complex)
    monkeypatch.setattr("gentile.rep._sine_diagonal", lambda reps: m)
    values = [value for _, value, _ in number_from_arcsin([rep])[0].table]
    assert values[1] == 4 / (2 * math.pi) * (math.pi / 2)
    assert values[3] == -values[1]


def test_arcsin_collision_n3():
    audit, = number_from_arcsin([build_rep(3)])
    assert audit.collision_flag
    assert (0, 2) in audit.collisions


def test_arcsin_no_collision_n2():
    audit, = number_from_arcsin([build_rep(2)])
    assert not audit.collision_flag


@pytest.mark.parametrize("n_values", [range(1, 131), range(5, 41)],
                         ids=["1..130", "5..40"])
def test_quadratic_diagonals_match_each_rep_bitwise(n_values):
    # row i of each sweep diagonal holds rep i's band product with its 0
    # appended or prepended, bit for bit, and 0 beyond the rep
    reps = [build_rep(n) for n in n_values]
    mask, amp = sweep_ladder(reps)
    swept = quadratic_diagonals(mask, amp)
    for i, rep in enumerate(reps):
        for row, alone in zip(swept, rep_quadratic_diagonals(rep)):
            assert row[i, :rep.dim].tobytes() == alone.tobytes(), rep.n
            assert not row[i, rep.dim:].any(), rep.n


def _arcsin_bits(audit):
    return repr(audit.table), audit.collisions


@pytest.mark.parametrize("n_values", [range(1, 131), range(5, 41)],
                         ids=["1..130", "5..40"])
def test_arcsin_sweep_rows_equal_each_n_alone(n_values):
    reps = [build_rep(n) for n in n_values]
    swept = _sine_diagonal(reps)
    for i, (rep, audit) in enumerate(zip(reps, number_from_arcsin(reps))):
        assert swept[i, :rep.dim].tobytes() \
            == _sine_diagonal([rep])[0].tobytes(), rep.n
        assert _arcsin_bits(audit) \
            == _arcsin_bits(number_from_arcsin([rep])[0]), rep.n


@pytest.mark.parametrize("first,second,contract", [
    (2.0, 2e-12j, "DomainError"), (2e-12j, 2.0, "NotHermitian"),
    (0.0, 2e-12j, "NotHermitian"), (0.0, 2.0, "DomainError")],
    ids=["domain-then-hermitian", "hermitian-then-domain",
         "hermitian-second", "domain-second"])
def test_arcsin_gates_raise_at_the_first_failing_n(monkeypatch, first,
                                                   second, contract):
    # the gates of a sweep fail as those of one n at a time: at the first
    # failing n, Hermiticity before the domain
    reps = [build_rep(2), build_rep(4)]
    m = _sine_diagonal(reps) + np.array([[0, first, 0, 0, 0],
                                         [0, 0, second, 0, 0]])
    monkeypatch.setattr("gentile.rep._sine_diagonal", lambda reps: m)
    with pytest.raises(GateFailed) as failed:
        number_from_arcsin(reps)
    assert failed.value.args[0] == contract
