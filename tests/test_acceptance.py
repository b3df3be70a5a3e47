"""The eleven acceptance criteria, one test (and one printed line) each."""

import cmath
import math
import time

import numpy as np

from _acceptance_log import record
from _reference import (bose_limit_check, closed_form_rows, dense_ladder,
                        eval_one, hermitian_eigen, max_abs_diff,
                        move_relation_check)
from gentile.audit import audit_crosscheck, run_full_audit
from gentile.catalog import build_catalog
from gentile.cli import main as cli_main
from gentile.coherent import (LambdaChoice, build_coherent,
                              eigenstate_residual)
from gentile.errors import DegenerateNodes
from gentile.oscillator import (build_hamiltonian, closed_form_spectrum,
                                per_state_energy, spectrum_crosscheck)
from gentile.rep import build_rep, number_from_arcsin
from gentile.su2 import (DiagonalChoice, solve_representation,
                         verify_representation)

DOCUMENTED_FREE_FAILS = {"appA_uvwo_brackets_printed"}


def test_criterion_1_defining_relation():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 25):
        a_dag, b, _ = dense_ladder(build_rep(n))
        q = cmath.exp(2j * math.pi / (n + 1))
        bracket = b @ a_dag - q * (a_dag @ b)
        worst = max(worst, max_abs_diff(bracket, np.eye(n + 1)))
    elapsed = time.perf_counter() - start
    record(1, "defining relation [b,adag]_n = 1 for n in 1..24",
           worst <= 1e-12 and elapsed < 1.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_fermi_spectrum():
    report = closed_form_spectrum(1)
    energies = [e for e, _ in report.levels]
    ok = (len(energies) == 2
          and abs(energies[0] + 0.5) <= 1e-12
          and abs(energies[1] - 0.5) <= 1e-12)
    record(2, "Fermi oscillator spectrum {-1/2, +1/2} at n=1", ok)


def test_criterion_3_spectrum_triangulation():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    n_values = list(range(1, 65))
    hamiltonians = build_hamiltonian([build_rep(n) for n in n_values])
    for n, (passed, deviation, report), h in zip(
            n_values, spectrum_crosscheck(n_values), hamiltonians):
        ok = ok and passed
        worst = max(worst, deviation)
        ok = ok and sum(m for _, m in report.levels) == n + 1
        # closed-form per-state energies against the Hamiltonian diagonal
        diag_dev = max(abs(h[v].real - per_state_energy(n, v))
                       for v in range(n + 1))
        worst = max(worst, diag_dev)
        ok = ok and diag_dev <= 1e-10
    # Jacobi with rotations: U H U^dag for a seeded random unitary U has
    # the closed-form levels, with multiplicity
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12, 32):
        g = rng.normal(size=(n + 1, n + 1)) \
            + 1j * rng.normal(size=(n + 1, n + 1))
        u, _ = np.linalg.qr(g)
        h = np.diag(build_hamiltonian([build_rep(n)])[0])
        eigvals, _ = hermitian_eigen(u @ h @ u.conj().T)
        expected = sorted(e for e, m in closed_form_spectrum(n).levels
                          for _ in range(m))
        ok = ok and len(expected) == n + 1
        worst = max(worst, max(abs(a - b) for a, b in zip(expected, eigvals)))
    elapsed = time.perf_counter() - start
    record(3, "spectrum triangulation (cases/diagonal of H/Jacobi on a "
           "rotated H) for n in 1..64",
           ok and worst <= 1e-10 and elapsed < 30.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_degeneracy_audit():
    ok = True
    # prose multiplicities hold in the three non-4t+1 residue classes
    for n in range(2, 17):
        report = closed_form_spectrum(n)
        if report.case_class == "4t+1":
            continue
        ok = ok and report.degeneracy_discrepancies == ()
    # 4t+1 must document the ground-level discrepancy (computed 1, prose 2)
    for n in (5, 9, 13):
        discrepancies = closed_form_spectrum(n).degeneracy_discrepancies
        ok = ok and (0, 1, 2) in discrepancies
    record(4, "degeneracy prose audit incl. 4t+1 ground-level discrepancy",
           ok)


def test_criterion_5_bose_limit():
    dev_1e4, _ = bose_limit_check(10 ** 4, 10)
    dev_1e6, _ = bose_limit_check(10 ** 6, 10)
    sweep = [bose_limit_check(10 ** k, 10)[0] for k in (3, 4, 5, 6)]
    monotone = all(a > b for a, b in zip(sweep, sweep[1:]))
    record(5, "Bose limit E(nu) -> nu + 1/2 for nu <= 10",
           dev_1e4 <= 1e-3 and dev_1e6 <= 1e-5 and monotone,
           f"dev(1e4)={dev_1e4:.2e}, dev(1e6)={dev_1e6:.2e}")


def test_criterion_6_symbolic_suite():
    start = time.perf_counter()
    free, limit, _ = run_full_audit(n_values=(1,), trials=1, seed=0)
    elapsed = time.perf_counter() - start
    free = {r.identity_id: r.verdict for r in free}
    limit = {r.identity_id: r.verdict for r in limit}
    # every entry reduces to the exact zero polynomial except the
    # documented misprinted double-bracket relation (corrected entry passes)
    ok = ({i for i, v in free.items() if v == "FAIL"} == DOCUMENTED_FREE_FAILS
          and free["appA_uvwo_brackets"] == "PASS"
          and "FAIL" not in limit.values()
          and limit["lim_eq81_jacobi"] == "PASS")
    record(6, "symbolic suite reduces to exact zero over formal q",
           ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_7_appendix_b_oracle():
    _, _, report = run_full_audit(n_values=(2, 3, 5, 8), trials=2, seed=0)
    ok = audit_crosscheck(report)
    verdicts = {r.identity_id: r.verdict for r in report}
    for k in (1, 2, 3):
        ok = ok and verdicts[f"appB_adagkb_adag_k{k}"] == "PASS"
        ok = ok and verdicts[f"appB_b_adagbk_k{k}"] == "PASS"
    # residual of [adag b^2, adag]_n must equal (q^2 - q) adag^2 b^2
    entry = next(e for e in build_catalog() if e.id == "appB_adagb2_adag")
    worst = 0.0
    for n in (2, 3, 5):
        rep = build_rep(n)
        a_dag, b, num = dense_ladder(rep)
        assignment = {"adag": a_dag, "b": b, "N": num}
        residual = (eval_one(entry.lhs, assignment, rep.roots, rep.dim)
                    - eval_one(entry.rhs, assignment, rep.roots, rep.dim))
        predicted = (rep.q ** 2 - rep.q) \
            * np.linalg.matrix_power(a_dag, 2) \
            @ np.linalg.matrix_power(b, 2)
        worst = max(worst, max_abs_diff(residual, predicted))
    record(7, "Appendix B audit with dense-matrix oracle agreement",
           ok and worst <= 1e-10, f"residual-match dev {worst:.2e}")


def test_criterion_8_coherent_states():
    worst = 0.0
    ok = True
    for n in range(1, 13):
        for choice in (LambdaChoice.ROOT_OF_UNITY_PLUS,
                       LambdaChoice.ROOT_OF_UNITY_MINUS):
            state = build_coherent(n, choice)
            worst = max(worst, eigenstate_residual(state))
            worst = max(worst, max(row[4]
                                   for row in closed_form_rows(state)))
            for power in range(min(n, 3) + 1):
                residuals = move_relation_check(n, choice, power)
                worst = max(worst, max(residuals.values()))
    ok = worst <= 1e-12
    record(8, "coherent states for n in 1..12, both printed lambda choices",
           ok, f"max residual {worst:.2e}")


def test_criterion_9_su2():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    # n = 99 is the largest n at which every choice and e010 pass
    for choice in (DiagonalChoice.NUM, DiagonalChoice.ADAG_B,
                   DiagonalChoice.BDAG_A):
        reps = solve_representation(range(1, 100), choice)
        for residuals, passed in verify_representation(reps):
            ok = ok and passed
            worst = max(worst, max(residuals.values()))  # e010 for adagb
    ok = ok and worst <= 1e-9
    # node collisions: adag a for every n >= 2; a adag once |<v+1>| pairs
    # exist inside states 1..n (first at n=4; solvable at n=2,3 — see ledger)
    for n, exc in zip(range(2, 17),
                      solve_representation(range(2, 17),
                                           DiagonalChoice.ADAG_A)):
        ok = (ok and isinstance(exc, DegenerateNodes)
              and sum(exc.pair) == n + 1)
    ok = ok and all(isinstance(exc, DegenerateNodes) for exc in
                    solve_representation(range(4, 17),
                                         DiagonalChoice.A_ADAG))
    elapsed = time.perf_counter() - start
    record(9, "su(2) representations for n in 1..99 plus node collisions",
           ok and elapsed < 10.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_10_arcsin_audit():
    ok = True
    worst = 0.0
    for n in range(1, 17):
        audit, = number_from_arcsin([build_rep(n)])
        for v, value, _ in audit.table:
            predicted = (n + 1) / (2 * math.pi) \
                * math.asin(math.sin(2 * math.pi * v / (n + 1)))
            worst = max(worst, abs(value - predicted))
    # asin is ill-conditioned at +/-1, so 1e-15 eigenvalue error can grow
    # to ~sqrt(eps) in the table; 1e-6 is the condition-limited bound
    ok = worst <= 1e-6
    audit3, = number_from_arcsin([build_rep(3)])
    ok = ok and audit3.collision_flag and (0, 2) in audit3.collisions
    record(10, "Eq. (N2) arcsin reconstruction matches principal-branch "
           "prediction, collision flagged at n=3", ok,
           f"max table dev {worst:.2e}")


def test_criterion_11_determinism(tmp_path):
    report_a = run_full_audit(n_values=(1, 2, 3, 5), trials=2, seed=0)[2]
    report_b = run_full_audit(n_values=(1, 2, 3, 5), trials=2, seed=0)[2]
    ok = [r.to_record(0) for r in report_a] \
        == [r.to_record(0) for r in report_b]
    paths = [tmp_path / "run_a.json", tmp_path / "run_b.json"]
    for path in paths:
        code = cli_main(["audit", "--n", "1..4", "--seed", "3",
                         "--out", str(path)])
        ok = ok and code == 0
    ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    record(11, "byte-identical JSON reports for identical (config, seed)",
           ok)
