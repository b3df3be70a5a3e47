"""Identity catalog and the dual-pipeline audit, including mutation tests."""

import json
import math
import re
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from _reference import (dense_ladder, eval_one, expand_renames,
                        splitmix64_mix, splitmix64_outputs,
                        splitmix64_uniforms)
from gentile.audit import (DEFAULT_TRIALS, RANDOM_DIM, TOL, IdentityResult,
                           SplitMix64, _block_algebras, _random_draws,
                           audit_crosscheck, audit_table, eval_expr,
                           run_full_audit)
from gentile.catalog import (FREE, FORMAL_Q, Q_AT_N, Q_EQ_1, Q_EQ_MINUS_1,
                             QUOTIENT, IdentityEntry, build_catalog)
from gentile.errors import GateFailed
from gentile.linalg import max_abs_diff
from gentile.rep import build_rep
from gentile.symbolic import (Algebra, cyc_sum, expand_free, fold,
                              generators_of, normal_order, parse, perm_sum)
from gentile.symbolic.expr import _children
from gentile.symbolic.freepoly import _FREE
from gentile.symbolic.quotient import QUOTIENT_ALPHABET

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


def test_catalog_alphabets():
    # QUOTIENT entries are normal-ordered over adag, b, N; a FREE entry over
    # those letters would be checked without their defining relations
    for entry in build_catalog():
        letters = generators_of(entry.lhs) | generators_of(entry.rhs)
        if entry.strategy == QUOTIENT:
            assert letters <= QUOTIENT_ALPHABET, entry.id
        else:
            assert not letters & QUOTIENT_ALPHABET, entry.id


def test_free_entries_below_amitsur_levitzki_degree():
    # k x k matrices satisfy the standard identity of degree 2k, so the
    # RANDOM_DIM spot checks can refute only identities of lower degree
    for entry in build_catalog():
        if entry.strategy != FREE or entry.specialization != FORMAL_Q:
            continue
        words = (list(expand_free(entry.lhs).terms)
                 + list(expand_free(entry.rhs).terms))
        assert max(map(len, words)) < 2 * RANDOM_DIM, entry.id


def test_readme_catalog_counts():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    match = re.search(r"(\d+) bracket identities \((\d+) formal-`q`, "
                      r"(\d+) `q = ±1` limit, (\d+) quotient\)", text)
    assert match, "README catalog sentence not found"
    specs = [e.specialization for e in build_catalog()]
    limit = specs.count(Q_EQ_1) + specs.count(Q_EQ_MINUS_1)
    assert tuple(map(int, match.groups())) == (
        len(specs), specs.count(FORMAL_Q), limit, specs.count(Q_AT_N))


def _failing_ids(results):
    return {r.identity_id for r in results if r.verdict == "FAIL"}


@pytest.fixture(scope="module")
def audit():
    return run_full_audit(n_values=(1, 2, 3, 5), trials=2, seed=0)


def test_free_suite_expected_verdicts(audit):
    free, _, _ = audit
    assert _failing_ids(free) == EXPECTED_FREE_FAILS
    assert len(free) > 40


def test_limit_suite_all_pass(audit):
    _, limit, _ = audit
    assert _failing_ids(limit) == set()
    # both unit specializations are exercised
    specs = {r.specialization for r in limit}
    assert specs == {"Q_EQ_1", "Q_EQ_MINUS_1"}


def test_matrix_suite_and_crosscheck(audit):
    _, _, matrix = audit
    assert _failing_ids(matrix) == EXPECTED_MATRIX_FAILS
    assert audit_crosscheck(matrix)


def test_corrected_uvwo_passes_printed_fails(audit):
    verdicts = {r.identity_id: r.verdict for r in audit[0]}
    assert verdicts["appA_uvwo_brackets"] == "PASS"
    assert verdicts["appA_uvwo_brackets_printed"] == "FAIL"


def test_full_audit_consistency():
    free, limit, matrix = run_full_audit(n_values=(2, 3), trials=1, seed=0)
    assert audit_crosscheck(matrix)
    assert _failing_ids(limit) == set()
    assert _failing_ids(free) == EXPECTED_FREE_FAILS


def test_empty_entry_list_gives_empty_report():
    assert run_full_audit(n_values=(2,), trials=1, seed=0, entries=[]) \
        == ([], [], [])


# -- the q^(N-1) phase of [Nb, adag b] ----------------------------------------

PHASE_IDS = ("appB_Nb_adagb_phase_left", "appB_Nb_adagb_phase_right")


def _phase_entries():
    catalog = {e.id: e for e in build_catalog()}
    return [catalog[identity_id] for identity_id in PHASE_IDS]


def _rep_assignment(rep):
    return dict(zip(("adag", "b", "N"), dense_ladder(rep)))


# reference: the two entries written directly as matrices of the Gentile
# representation, with the phase a function of the number operator
def _nb(rep):
    _, b, num = dense_ladder(rep)
    return num @ b


def _lhs_phase(rep):
    a_dag, b, _ = dense_ladder(rep)
    nb, ab = _nb(rep), a_dag @ b
    return nb @ ab - ab @ nb


def _phase(rep):
    return np.diag([np.exp(2j * np.pi * (v - 1) / (rep.n + 1))
                    for v in range(rep.dim)])


def _rhs_phase_left(rep):
    return _phase(rep) @ _nb(rep)


def _rhs_phase_right(rep):
    return _nb(rep) @ _phase(rep)


REFERENCE_BUILDERS = {
    "appB_Nb_adagb_phase_left": (_lhs_phase, _rhs_phase_left),
    "appB_Nb_adagb_phase_right": (_lhs_phase, _rhs_phase_right),
}


def test_phase_tree_is_q_to_the_n_minus_1():
    left, right = _phase_entries()
    phase = left.rhs.left
    assert right.rhs.right == phase
    for n in range(1, 129):
        rep = build_rep(n)
        got = eval_one(phase, _rep_assignment(rep), rep.roots, rep.dim)
        assert max_abs_diff(got, _phase(rep)) <= 1e-13, n


def test_phase_normal_form_residuals():
    left, right = _phase_entries()
    assert normal_order(left.lhs) - normal_order(left.rhs)
    assert not (normal_order(right.lhs) - normal_order(right.rhs))


@pytest.mark.parametrize("identity_id", PHASE_IDS)
def test_phase_trees_match_matrix_builders(identity_id):
    entry = {e.id: e for e in _phase_entries()}[identity_id]
    for n in range(1, 65):
        rep = build_rep(n)
        assign = _rep_assignment(rep)
        for tree, builder in zip((entry.lhs, entry.rhs),
                                 REFERENCE_BUILDERS[identity_id]):
            want = builder(rep)
            got = eval_one(tree, assign, rep.roots, rep.dim)
            bound = 1e-12 * max(1.0, np.abs(want).max())
            assert max_abs_diff(got, want) <= bound, (n, builder.__name__)


# -- stacked evaluation is bit-identical to one draw at a time -----------------


def _block_fold_one(e, assignment: dict, roots):
    """The audit's block-form fold of one (10, 10) block per generator at
    the root of unity whose powers are ``roots``: a batch of one."""
    batch = {name: m[None] for name, m in assignment.items()}
    alg = _block_algebras([roots], RANDOM_DIM, slice(None))(batch)
    return fold(e, alg)[0]


def _sequential_residuals(n_values, trials, seed):
    """Worst residual of every formal-q FREE entry, one draw at a time,
    from the reference stream, each row folded alone in block form."""
    draws = splitmix64_uniforms(seed)
    half_width = math.sqrt(3.0) / 2.0

    def part():
        u = np.array(list(islice(draws, 25))).reshape(5, 5)
        return (2.0 * u - 1.0) * half_width

    worst = {}
    for entry in build_catalog():
        if entry.strategy != FREE or entry.specialization != FORMAL_Q:
            continue
        names = sorted(generators_of(entry.lhs) | generators_of(entry.rhs))
        worst[entry.id] = 0.0
        for n in n_values:
            roots = build_rep(n).roots
            for _ in range(trials):
                assign = {}
                for name in names:
                    re, im = part(), part()
                    assign[name] = np.block([[re, -im], [im, re]])
                diff = (_block_fold_one(entry.lhs, assign, roots)
                        - _block_fold_one(entry.rhs, assign, roots))
                worst[entry.id] = max(worst[entry.id], float(
                    np.hypot(diff[:5, :5], diff[5:, :5]).max()))
    return worst


@pytest.mark.parametrize("seed", [0, 9])
def test_matrix_suite_residuals_match_sequential_draws(seed):
    n_values = (1, 12, 20)
    _, _, matrix = run_full_audit(n_values=n_values, trials=2, seed=seed)
    stacked = {r.identity_id: r.numeric_residual for r in matrix
               if r.strategy == FREE}
    assert stacked == _sequential_residuals(n_values, 2, seed)


def test_eval_expr_stacked_matches_row_by_row():
    expr = parse("[u^2, 1/3 q^2 v]_n + q^-1 sumperm(u, v, w) "
                 "- {sumcyc(u, 2 v, q^3 w), w}")
    n_rows = (1, 12, 20, 12, 7)
    tables = [build_rep(n).roots for n in n_rows]
    rng = np.random.default_rng(4)
    gens = {name: rng.standard_normal((len(n_rows), 4, 4))
            + 1j * rng.standard_normal((len(n_rows), 4, 4))
            for name in "uvw"}
    stacked = eval_expr(expr, gens, tables, 4)
    assert stacked.shape == (len(n_rows), 4, 4)
    for i, roots in enumerate(tables):
        row = eval_one(expr, {k: v[i] for k, v in gens.items()}, roots, 4)
        assert stacked[i].tobytes() == row.tobytes()


@pytest.mark.parametrize("seed", [3, 8])
def test_block_folds_match_complex_folds(seed):
    # the block form is an exact ring embedding, so the block and the
    # complex fold of the default audit's draws differ by rounding alone,
    # in the left blocks that the residual reads and in the right ones
    n_values = range(1, 25)
    tables = [build_rep(n).roots for n in n_values]
    rows = np.repeat(np.arange(len(tables)), DEFAULT_TRIALS)
    rng, d = SplitMix64(seed), RANDOM_DIM
    block_algebra = _block_algebras(tables, d, rows)
    for entry in build_catalog():
        if entry.strategy != FREE or entry.specialization != FORMAL_Q:
            continue
        blocks = _random_draws(
            generators_of(entry.lhs) | generators_of(entry.rhs), rng,
            len(rows))
        alg = block_algebra(blocks)
        gens = {name: b[:, :d, :d] + 1j * b[:, d:, :d]
                for name, b in blocks.items()}
        for side in (entry.lhs, entry.rhs):
            block = fold(side, alg)
            value = eval_expr(side, gens, tables, d, rows)
            bound = 1e-14 * np.abs(value).max()
            left = block[:, :d, :d] + 1j * block[:, d:, :d]
            right = block[:, d:, d:] - 1j * block[:, :d, d:]
            assert max_abs_diff(left, value) <= bound, entry.id
            assert max_abs_diff(right, value) <= bound, entry.id


def test_block_fold_stacked_matches_row_by_row():
    # each row of a stacked block fold is that row folded alone, bit for
    # bit, with the rows' tables shared as in the audit
    expr = (parse("[u^2, 1/3 q^2 v]_n + q^-1 sumperm(u, v, w) "
                  "- {sumcyc(u, 2 v, q^3 w), w}")
            + perm_sum(parse("[u, v]_n w"), ["u", "v", "w"]))
    tables = [build_rep(n).roots for n in (1, 12, 20)]
    rows = np.array([0, 2, 1, 1, 0])
    rng = np.random.default_rng(6)
    gens = {}
    for name in "uvw":
        re, im = rng.standard_normal((2, len(rows), 4, 4))
        gens[name] = np.block([[re, -im], [im, re]])
    stacked = fold(expr, _block_algebras(tables, 4, rows)(gens))
    assert stacked.shape == (len(rows), 8, 8)
    assert stacked.dtype == np.float64
    for i, table in enumerate(rows):
        row = fold(expr, _block_algebras([tables[table]], 4, slice(None))(
            {k: v[i:i + 1] for k, v in gens.items()}))
        assert stacked[i].tobytes() == row[0].tobytes(), i


def test_eval_expr_shared_tables_match_one_table_per_row():
    # rows that name one table read each scalar's value from it
    expr = parse("[u^2, 1/3 q^2 v]_n + q^-1 u v - {q^3 w, u}")
    n_values = (1, 12, 20)
    tables = [build_rep(n).roots for n in n_values]
    rows = np.array([0, 0, 1, 2, 1, 2, 0])
    rng = np.random.default_rng(5)
    gens = {name: rng.standard_normal((len(rows), 4, 4))
            + 1j * rng.standard_normal((len(rows), 4, 4))
            for name in "uvw"}
    shared = eval_expr(expr, gens, tables, 4, rows)
    per_row = eval_expr(expr, gens, [tables[i] for i in rows], 4)
    assert shared.tobytes() == per_row.tobytes()


def _node_count(e) -> int:
    return 1 + sum(map(_node_count, _children(e)))


def test_renaming_sums_match_their_substituted_copies():
    # fold sums a renaming sum's body under each renaming of gen: every
    # value is the one of the tree of substituted copies, bit for bit
    tables = [build_rep(n).roots for n in (1, 2, 5)]
    rows = np.array([0, 2, 1, 0])
    rng = np.random.default_rng(11)
    renamed = 0
    for entry in build_catalog():
        names = sorted(generators_of(entry.lhs) | generators_of(entry.rhs))
        gens = {name: rng.standard_normal((len(rows), 3, 3))
                + 1j * rng.standard_normal((len(rows), 3, 3))
                for name in names}
        for side in (entry.lhs, entry.rhs):
            copies = expand_renames(side)
            renamed += copies != side
            assert generators_of(side) == generators_of(copies), entry.id
            free, free_copies = expand_free(side), expand_free(copies)
            assert list(free.terms.items()) \
                == list(free_copies.terms.items()), entry.id
            assert eval_expr(side, gens, tables, 3, rows).tobytes() \
                == eval_expr(copies, gens, tables, 3, rows).tobytes(), \
                entry.id
    assert renamed == 67  # sides that hold a renaming sum


def test_relabeled_renaming_sums_match_one_fold_per_renaming():
    # free expansion folds a renaming sum's body once and relabels its
    # words per renaming: the terms, their coefficients and their order
    # are those of one fold per renaming, nested renaming sums included
    assert _FREE.relabel is not None
    per_renaming = Algebra(*_FREE._values[:-1], None)
    body = parse("[u, v^2]_n w - q^-1 sumcyc(u, {v, w}, [u, w])")
    nested = perm_sum(cyc_sum(body, ["u", "v", "w"]) + parse("2 u w v"),
                      ["u", "v"])
    sides = [nested] + [side for entry in build_catalog()
                        for side in (entry.lhs, entry.rhs)]
    for side in sides:
        relabeled = fold(side, _FREE)
        assert list(relabeled.terms.items()) \
            == list(fold(side, per_renaming).terms.items()), side
    assert list(expand_free(nested).terms.items()) \
        == list(expand_free(expand_renames(nested)).terms.items())


def test_catalog_holds_no_renamed_copies():
    # each renaming sum stores its body once: the parent's trees of
    # substituted copies had 6,859 nodes
    catalog = build_catalog()
    assert sum(_node_count(e.lhs) + _node_count(e.rhs)
               for e in catalog) == 2594
    assert sum(_node_count(expand_renames(e.lhs))
               + _node_count(expand_renames(e.rhs)) for e in catalog) == 6859


# -- the spot checks' SplitMix64 stream ----------------------------------------


def test_reference_splitmix64_gives_the_published_outputs():
    # known-answer outputs of SplitMix64 from state 1234567 and from
    # state 0, the audit's state for seed 0
    assert list(islice(splitmix64_outputs(1234567), 5)) == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]
    assert list(islice(splitmix64_outputs(0), 3)) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert splitmix64_mix(0) == 0


SEEDS = [0, 7, 2 ** 64 - 1, 2 ** 64, 10 ** 99 + 12345]


@pytest.mark.parametrize("seed", SEEDS,
                         ids=["0", "7", "2^64-1", "2^64", "100-digit"])
def test_stream_matches_reference(seed):
    got = SplitMix64(seed).random((3, 2, 50))
    assert got.shape == (3, 2, 50)
    want = np.array(list(islice(splitmix64_uniforms(seed), 300)))
    assert got.ravel().tobytes() == want.tobytes()
    assert ((0.0 <= got) & (got < 1.0)).all()


def test_seeds_give_distinct_streams():
    firsts = {SplitMix64(seed).random((4,)).tobytes()
              for seed in [*SEEDS, 1, 2 ** 128]}
    assert len(firsts) == len(SEEDS) + 2


@pytest.mark.parametrize("a,b", [(1, 1), (25, 50), (7, 0)])
def test_one_draw_equals_two_consecutive_draws(a, b):
    whole = SplitMix64(53).random((a + b,))
    split = SplitMix64(53)
    parts = np.concatenate([split.random((a,)), split.random((b,))])
    assert whole.tobytes() == parts.tobytes()


# -- mutation tests: a corrupted identity must never slip through -------------


def _mutated_entry():
    # defining-style free identity with a flipped sign on the rhs
    return IdentityEntry(
        id="mutation_sign_flip",
        lhs=parse("[u,v]_n"),
        rhs=parse("u v + q v u"),  # correct rhs is u v - q v u
        specialization=FORMAL_Q)


def test_mutated_identity_fails_both_pipelines():
    free, _, matrix = run_full_audit(n_values=(2, 3), trials=2, seed=0,
                                     entries=[_mutated_entry()])
    assert [r.verdict for r in free] == ["FAIL"]
    (result,) = matrix
    assert result.identity_id == "mutation_sign_flip"
    assert result.verdict == "FAIL"
    assert result.numeric_residual > TOL * 10
    # consistent FAIL/FAIL: crosscheck raises no GateFailed
    assert audit_crosscheck(matrix)


def test_crosscheck_detects_pipeline_disagreement():
    # forge a result whose symbolic verdict contradicts its numeric residual
    _, _, matrix = run_full_audit(n_values=(2,), trials=1, seed=0,
                                  entries=[_mutated_entry()])
    (result,) = matrix
    assert result._fields[-1] == "verdict"
    forged = IdentityResult(*result._values[:-1], "PASS")
    with pytest.raises(GateFailed) as failed:
        audit_crosscheck([forged])
    contract, detail = failed.value.args
    assert contract == "audit_crosscheck"
    assert detail == ("inconsistent verdicts for 'mutation_sign_flip': "
                      "symbolic PASS but numeric residual "
                      f"{result.numeric_residual:.3e}")


# -- report serialization -------------------------------------------------------


def test_report_json_shape_and_determinism():
    report_a = run_full_audit(n_values=(2, 3), trials=2, seed=5)[2]
    report_b = run_full_audit(n_values=(2, 3), trials=2, seed=5)[2]
    text_a, text_b = (
        json.dumps([r.to_record(5) for r in report], indent=2)
        for report in (report_a, report_b))
    assert text_a == text_b
    records = json.loads(text_a)
    assert {"identity_id", "strategy", "specialization", "verdict",
            "residual", "n_tested", "seed"} <= set(records[0])
    # no timing field: records are byte-identical for one (config, seed)
    assert "wall_time" not in records[0]


def test_report_table_renders(audit):
    text = audit_table(audit[0])
    assert "appA_uvwo_brackets_printed" in text
