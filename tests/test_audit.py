"""Identity catalog and the dual-pipeline audit, including mutation tests."""

import json

import numpy as np
import pytest

from gentile.audit import (audit_crosscheck, eval_expr, run_free_suite,
                           run_full_audit, run_limit_suite, run_matrix_suite)
from gentile.catalog import (FREE, FORMAL_Q, IdentityEntry, build_catalog,
                             load_identity_file, parse_identity_line)
from gentile.errors import InconsistentVerdict, ParseError
from gentile.linalg import max_abs_diff
from gentile.symbolic import Gen, generators_of, parse

# documented printed-relation failures; everything else must PASS
EXPECTED_FREE_FAILS = {"appA_uvwo_brackets_printed"}
EXPECTED_MATRIX_FAILS = {
    "appA_uvwo_brackets_printed",
    "appB_adagb2_adag",
    "appB_b_adag2b",
    "appB_Nb_adagb_phase_left",
}


def test_catalog_ids_unique():
    ids = [e.id for e in build_catalog()]
    assert len(ids) == len(set(ids))


def test_free_suite_expected_verdicts():
    report = run_free_suite()
    assert set(report.failing_ids) == EXPECTED_FREE_FAILS
    assert len(report.results) > 40


def test_limit_suite_all_pass():
    report = run_limit_suite()
    assert report.failing_ids == []
    # both unit specializations are exercised
    specs = {r.specialization for r in report.results}
    assert specs == {"Q_EQ_1", "Q_EQ_MINUS_1"}


def test_matrix_suite_and_crosscheck():
    report = run_matrix_suite(n_values=(1, 2, 3, 5), trials=2, seed=0)
    assert set(report.failing_ids) == EXPECTED_MATRIX_FAILS
    assert audit_crosscheck(report)


def test_corrected_uvwo_passes_printed_fails():
    report = run_free_suite()
    assert report.by_id("appA_uvwo_brackets").verdict == "PASS"
    assert report.by_id("appA_uvwo_brackets_printed").verdict == "FAIL"


def test_full_audit_consistency():
    free, limit, matrix = run_full_audit(n_values=(2, 3), trials=1)
    assert audit_crosscheck(matrix)
    assert limit.failing_ids == []
    assert set(free.failing_ids) == EXPECTED_FREE_FAILS


def test_empty_entry_list_gives_empty_report():
    assert run_free_suite([]).results == []
    assert run_limit_suite([]).results == []
    assert run_matrix_suite(n_values=(2,), trials=1, entries=[]).results == []


# -- stacked evaluation is bit-identical to one draw at a time -----------------


def _sequential_residuals(n_values, trials, seed):
    """Worst residual of every formal-q FREE entry, one draw at a time."""
    rng = np.random.default_rng(seed)
    worst = {}
    for entry in build_catalog():
        if entry.strategy != FREE or entry.specialization != FORMAL_Q:
            continue
        names = sorted(generators_of(entry.lhs) | generators_of(entry.rhs))
        worst[entry.id] = 0.0
        for n in n_values:
            qval = np.exp(2j * np.pi / (n + 1))
            for _ in range(trials):
                assign = {}
                for name in names:
                    r = np.sqrt(rng.uniform(0.0, 1.0, (5, 5)))
                    phi = rng.uniform(0.0, 2.0 * np.pi, (5, 5))
                    assign[name] = r * np.exp(1j * phi)
                worst[entry.id] = max(worst[entry.id], max_abs_diff(
                    eval_expr(entry.lhs, assign, qval, 5),
                    eval_expr(entry.rhs, assign, qval, 5)))
    return worst


@pytest.mark.parametrize("seed", [0, 9])
def test_matrix_suite_residuals_match_sequential_draws(seed):
    n_values = (1, 12, 20)
    report = run_matrix_suite(n_values=n_values, trials=2, seed=seed)
    stacked = {r.identity_id: r.numeric_residual for r in report.results
               if r.strategy == FREE}
    assert stacked == _sequential_residuals(n_values, 2, seed)


def test_eval_expr_stacked_matches_row_by_row():
    expr = parse("[u^2, 1/3 q^2 v]_n + q^-1 sumperm(u, v, w) "
                 "- {sumcyc(u, 2 v, q^3 w), w}")
    n_rows = (1, 12, 20, 12, 7)
    q = np.array([np.exp(2j * np.pi / (n + 1)) for n in n_rows])
    rng = np.random.default_rng(4)
    gens = {name: rng.standard_normal((len(n_rows), 4, 4))
            + 1j * rng.standard_normal((len(n_rows), 4, 4))
            for name in "uvw"}
    stacked = eval_expr(expr, gens, q.reshape(-1, 1, 1), 4)
    assert stacked.shape == (len(n_rows), 4, 4)
    for i, qval in enumerate(q):
        row = eval_expr(expr, {k: v[i] for k, v in gens.items()}, qval, 4)
        assert stacked[i].tobytes() == row.tobytes()


# -- mutation tests: a corrupted identity must never slip through -------------


def _mutated_entry():
    # defining-style free identity with a flipped sign on the rhs
    return IdentityEntry(
        id="mutation_sign_flip",
        lhs=parse("[u,v]_n"),
        rhs=parse("u v + q v u"),  # correct rhs is u v - q v u
        strategy=FREE, specialization=FORMAL_Q)


def test_mutated_identity_fails_both_pipelines():
    entry = _mutated_entry()
    free = run_free_suite([entry])
    assert free.by_id("mutation_sign_flip").verdict == "FAIL"
    matrix = run_matrix_suite(n_values=(2, 3), trials=2, entries=[entry])
    result = matrix.by_id("mutation_sign_flip")
    assert result.symbolic_verdict == "FAIL"
    assert result.numeric_residual > matrix.tol * 10
    # consistent FAIL/FAIL: crosscheck raises no InconsistentVerdict
    assert audit_crosscheck(matrix)


def test_crosscheck_detects_pipeline_disagreement():
    # forge a report whose symbolic verdict contradicts its numeric residual
    matrix = run_matrix_suite(n_values=(2,), trials=1,
                              entries=[_mutated_entry()])
    result = matrix.by_id("mutation_sign_flip")
    result.symbolic_verdict = "PASS"
    with pytest.raises(InconsistentVerdict):
        audit_crosscheck(matrix)


# -- identity-file interface ---------------------------------------------------


def test_parse_identity_line():
    name, lhs, rhs = parse_identity_line(
        "defining : [b,adag]_n == 1")
    assert name == "defining"
    assert parse_identity_line("   ") is None
    assert parse_identity_line("# comment") is None
    with pytest.raises(ParseError):
        parse_identity_line("no separator here")
    with pytest.raises(ParseError):
        parse_identity_line("name : lhs rhs")


def test_load_identity_file(tmp_path):
    path = tmp_path / "identities.txt"
    path.write_text(
        "# demo file\n"
        "swap : [u,v]_n + q [v,u]_n == u v - q^2 u v\n"
        "bad_sign : [u,v]_n == u v + q v u\n",
        encoding="utf-8")
    entries = load_identity_file(path)
    assert [e.id for e in entries] == ["swap", "bad_sign"]
    report = run_free_suite(entries)
    assert report.by_id("swap").verdict == "PASS"
    assert report.by_id("bad_sign").verdict == "FAIL"


# -- report serialization -------------------------------------------------------


def test_report_json_shape_and_determinism():
    report_a = run_matrix_suite(n_values=(2, 3), trials=2, seed=5)
    report_b = run_matrix_suite(n_values=(2, 3), trials=2, seed=5)
    assert report_a.to_json() == report_b.to_json()
    records = json.loads(report_a.to_json())
    assert {"identity_id", "strategy", "specialization", "verdict",
            "residual", "n_tested", "seed"} <= set(records[0])
    # wall time is deliberately excluded for byte-level determinism
    assert "wall_time" not in records[0]


def test_report_table_renders():
    report = run_free_suite()
    text = report.table()
    assert "appA_uvwo_brackets_printed" in text
