"""Audit runner: verify every cataloged identity symbolically and numerically.

Symbolic verdicts come from exact expansion (free polynomial or quotient
normal form); numeric spot-checks evaluate the same expressions with
random complex matrices or in the Gentile matrix representation.  A FAIL
verdict on a printed relation is a first-class outcome; only disagreement
between the two pipelines is an error.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .catalog import (FORMAL_Q, FREE, MATRIX, Q_EQ_1, Q_EQ_MINUS_1, QUOTIENT,
                      build_catalog)
from .errors import InconsistentVerdict
from .linalg import max_abs_diff
from .rep import build_rep
from .symbolic import (Add, AntiCommutator, Commutator, Expr, Gen, Mul,
                       NBracket, Pow, Scal, Sub, SumCyc, SumPerm,
                       expand_free, generators_of, normal_order, product)

DEFAULT_N_VALUES = tuple(range(1, 9))
DEFAULT_TRIALS = 3
DEFAULT_TOL = 1e-9
RANDOM_DIM = 5


def _scalar_at(s, qval):
    """``s`` at ``qval``, taking a stacked ``qval`` one distinct q at a time.

    numpy's array ``q**2`` and ``q**-1`` differ from scalar ``pow`` in the
    last bit, so each distinct q is evaluated as a scalar and broadcast.
    """
    if np.ndim(qval) == 0:
        return s.eval_at(qval)
    distinct, index = np.unique(np.ravel(qval), return_inverse=True)
    values = np.array([s.eval_at(q) for q in distinct], dtype=complex)
    return values[index].reshape(np.shape(qval))


def _sum_of(orders, assignment, qval, dim) -> np.ndarray:
    """Sum of the products of each factor order, starting from the first."""
    first, *rest = (eval_expr(product(order), assignment, qval, dim)
                    for order in orders)
    return sum(rest, first)


def eval_expr(e: Expr, assignment: dict, qval, dim: int) -> np.ndarray:
    """Numeric matrix value of an expression tree.

    Generators may also be stacked ``(B, dim, dim)`` arrays with ``qval`` a
    ``(B, 1, 1)`` array; every slice of the result then equals the
    unstacked evaluation of that slice bit for bit.
    """
    if isinstance(e, Gen):
        return assignment[e.name]
    if isinstance(e, Scal):
        return _scalar_at(e.value, qval) * np.eye(dim, dtype=complex)
    if isinstance(e, Add):
        return eval_expr(e.left, assignment, qval, dim) \
            + eval_expr(e.right, assignment, qval, dim)
    if isinstance(e, Sub):
        return eval_expr(e.left, assignment, qval, dim) \
            - eval_expr(e.right, assignment, qval, dim)
    if isinstance(e, Mul):
        return eval_expr(e.left, assignment, qval, dim) \
            @ eval_expr(e.right, assignment, qval, dim)
    if isinstance(e, Pow):
        return np.linalg.matrix_power(
            eval_expr(e.base, assignment, qval, dim), e.exponent)
    if isinstance(e, NBracket):
        x = eval_expr(e.left, assignment, qval, dim)
        y = eval_expr(e.right, assignment, qval, dim)
        return x @ y - qval * (y @ x)
    if isinstance(e, Commutator):
        x = eval_expr(e.left, assignment, qval, dim)
        y = eval_expr(e.right, assignment, qval, dim)
        return x @ y - y @ x
    if isinstance(e, AntiCommutator):
        x = eval_expr(e.left, assignment, qval, dim)
        y = eval_expr(e.right, assignment, qval, dim)
        return x @ y + y @ x
    if isinstance(e, SumPerm):
        return _sum_of(permutations(e.operands), assignment, qval, dim)
    if isinstance(e, SumCyc):
        ops = list(e.operands)
        return _sum_of((ops[k:] + ops[:k] for k in range(len(ops))),
                       assignment, qval, dim)
    raise TypeError(f"unknown node {type(e).__name__}")


@dataclass
class IdentityResult:
    identity_id: str
    strategy: str
    specialization: str
    symbolic_verdict: str | None  # PASS / FAIL / None (matrix-only)
    residual_digest: str
    numeric_residual: float | None
    n_tested: tuple
    verdict: str
    wall_time: float = 0.0
    degenerate_specializations: tuple = ()

    def to_record(self, seed: int) -> dict:
        return {
            "identity_id": self.identity_id,
            "strategy": self.strategy,
            "specialization": self.specialization,
            "verdict": self.verdict,
            "residual": (self.residual_digest if self.numeric_residual is None
                         else format(self.numeric_residual, ".17g")),
            "n_tested": list(self.n_tested),
            "seed": seed,
        }


@dataclass
class AuditReport:
    results: list
    seed: int
    tol: float

    def __post_init__(self):
        ids = [r.identity_id for r in self.results]
        assert len(ids) == len(set(ids)), "duplicate result ids"

    def by_id(self, identity_id: str) -> IdentityResult:
        for r in self.results:
            if r.identity_id == identity_id:
                return r
        raise KeyError(identity_id)

    @property
    def failing_ids(self):
        return [r.identity_id for r in self.results if r.verdict == "FAIL"]

    def to_json(self) -> str:
        return json.dumps([r.to_record(self.seed) for r in self.results],
                          indent=2)

    def table(self) -> str:
        lines = [f"{'identity':36} {'strategy':9} {'spec':12} "
                 f"{'verdict':7} {'time/s':>8}  residual"]
        for r in self.results:
            resid = (r.residual_digest if r.numeric_residual is None
                     else f"{r.numeric_residual:.3e}")
            lines.append(f"{r.identity_id:36} {r.strategy:9} "
                         f"{r.specialization:12} {r.verdict:7} "
                         f"{r.wall_time:8.4f}  {resid}")
        return "\n".join(lines)


def _digest(poly, limit: int = 120) -> str:
    text = repr(poly)
    return text if len(text) <= limit else text[:limit] + "..."


def _symbolic_suite(entries, specializations) -> AuditReport:
    """Expand lhs - rhs of every FREE entry with a listed specialization."""
    results = []
    for entry in build_catalog() if entries is None else entries:
        if entry.strategy != FREE \
                or entry.specialization not in specializations:
            continue
        start = time.perf_counter()
        residual = expand_free(entry.lhs) - expand_free(entry.rhs)
        if entry.specialization in (Q_EQ_1, Q_EQ_MINUS_1):
            residual = residual.specialize_unit(
                1 if entry.specialization == Q_EQ_1 else -1)
            passed = not residual
        else:
            passed = residual.is_zero
        verdict = "PASS" if passed else "FAIL"
        results.append(IdentityResult(
            identity_id=entry.id, strategy=entry.strategy,
            specialization=entry.specialization, symbolic_verdict=verdict,
            residual_digest="0" if passed else _digest(residual),
            numeric_residual=None, n_tested=(), verdict=verdict,
            wall_time=time.perf_counter() - start))
    return AuditReport(results=results, seed=0, tol=0.0)


def run_free_suite(entries=None) -> AuditReport:
    """Expand every formal-q FREE identity to a canonical polynomial."""
    return _symbolic_suite(entries, (FORMAL_Q,))


def run_limit_suite(entries=None) -> AuditReport:
    """Check q = 1 (commutator) and q = -1 (anticommutator) limit forms."""
    return _symbolic_suite(entries, (Q_EQ_1, Q_EQ_MINUS_1))


def _random_draws(names, rng, batch: int) -> dict:
    """``batch`` random matrices per name, stacked as ``(batch, dim, dim)``."""
    u = rng.random((batch, len(names), 2, RANDOM_DIM, RANDOM_DIM))
    # entries uniform on the complex unit disk; uniform(0, 2 pi) is 2 pi * u
    mats = np.sqrt(u[:, :, 0]) * np.exp(1j * (2.0 * np.pi * u[:, :, 1]))
    return {name: mats[:, i] for i, name in enumerate(sorted(names))}


def run_matrix_suite(n_values=DEFAULT_N_VALUES, trials=DEFAULT_TRIALS,
                     tol=DEFAULT_TOL, seed=0, entries=None) -> AuditReport:
    """Numeric evaluation of the catalog in matrix form.

    QUOTIENT and MATRIX entries are evaluated in the Gentile representation
    at every n; FREE formal-q entries are spot-checked with random complex
    matrices.  Degenerate specializations of cleared-denominator entries
    (the cleared prefactor vanishing at some n) are recorded.

    Draw order, which keeps a seed's output stable: one generator seeded
    with ``seed`` serves the FREE formal-q entries in catalog order.  Each
    entry takes, for each n, for each of ``trials`` draws, for each of its
    generator names in sorted order, a 5x5 block of ``uniform(0, 1)``
    numbers r and then a 5x5 block of ``uniform(0, 2 pi)`` numbers phi, and
    sets that generator to ``sqrt(r) * exp(1j * phi)``.  All draws of an
    entry are evaluated as one stacked batch, with q = exp(2 pi i/(n + 1))
    computed from each Python-int n; the residual is the largest entrywise
    |lhs - rhs| over the batch.
    """
    catalog = build_catalog() if entries is None else list(entries)
    return _matrix_suite(catalog, run_free_suite(catalog), n_values, trials,
                         tol, seed)


def _matrix_suite(catalog, free, n_values, trials, tol, seed) -> AuditReport:
    """run_matrix_suite, with FREE symbolic verdicts taken from ``free``."""
    free_verdicts = {r.identity_id: (r.symbolic_verdict, r.residual_digest)
                     for r in free.results}
    rng = np.random.default_rng(seed)
    reps = {n: build_rep(n) for n in n_values}
    q_draws = np.array([np.exp(2j * np.pi / (n + 1)) for n in n_values],
                       dtype=complex).repeat(trials).reshape(-1, 1, 1)
    results = []
    for entry in catalog:
        start = time.perf_counter()
        worst = 0.0
        symbolic = None
        digest = "0"
        degenerate = ()
        if entry.strategy == FREE:
            if entry.specialization != FORMAL_Q:
                continue  # limit forms have no finite-n specialization
            symbolic, digest = free_verdicts[entry.id]
            if entry.denominator_cleared:
                degenerate = tuple(n for n in n_values if n == 1)
            assign = _random_draws(
                generators_of(entry.lhs) | generators_of(entry.rhs), rng,
                len(q_draws))
            worst = max_abs_diff(
                eval_expr(entry.lhs, assign, q_draws, RANDOM_DIM),
                eval_expr(entry.rhs, assign, q_draws, RANDOM_DIM))
        elif entry.strategy == QUOTIENT:
            residual_poly = normal_order(entry.lhs) - normal_order(entry.rhs)
            symbolic = "PASS" if residual_poly.is_zero else "FAIL"
            if symbolic == "FAIL":
                digest = _digest(residual_poly)
            for n in n_values:
                rep = reps[n]
                assign = {"adag": rep.a_dag, "b": rep.b, "N": rep.num}
                lhs = eval_expr(entry.lhs, assign, rep.q, rep.dim)
                rhs = eval_expr(entry.rhs, assign, rep.q, rep.dim)
                worst = max(worst, max_abs_diff(lhs, rhs))
        elif entry.strategy == MATRIX:
            for n in n_values:
                rep = reps[n]
                worst = max(worst, max_abs_diff(entry.lhs_builder(rep),
                                                entry.rhs_builder(rep)))
        else:
            raise ValueError(f"unknown strategy {entry.strategy!r}")
        numeric_verdict = "PASS" if worst <= tol else "FAIL"
        verdict = symbolic if symbolic is not None else numeric_verdict
        results.append(IdentityResult(
            identity_id=entry.id, strategy=entry.strategy,
            specialization=entry.specialization, symbolic_verdict=symbolic,
            residual_digest=digest, numeric_residual=worst,
            n_tested=tuple(n_values), verdict=verdict,
            wall_time=time.perf_counter() - start,
            degenerate_specializations=degenerate))
    return AuditReport(results=results, seed=seed, tol=tol)


def audit_crosscheck(matrix_report: AuditReport) -> bool:
    """True iff symbolic verdicts agree with all numeric spot-checks.

    PASS requires every residual <= tol; FAIL requires some residual
    > 10*tol.  Vacuously true for an empty report.
    """
    tol = matrix_report.tol
    for r in matrix_report.results:
        if r.symbolic_verdict is None or r.numeric_residual is None:
            continue
        if r.symbolic_verdict == "PASS" and r.numeric_residual > tol:
            raise InconsistentVerdict(
                r.identity_id,
                f"symbolic PASS but numeric residual {r.numeric_residual:.3e}")
        if r.symbolic_verdict == "FAIL" and r.n_tested \
                and r.numeric_residual <= 10.0 * tol:
            raise InconsistentVerdict(
                r.identity_id,
                f"symbolic FAIL but numeric residual {r.numeric_residual:.3e}")
    return True


def run_full_audit(n_values=DEFAULT_N_VALUES, trials=DEFAULT_TRIALS,
                   tol=DEFAULT_TOL, seed=0, extra_entries=None):
    """Run every suite; returns (free, limit, matrix) reports."""
    catalog = build_catalog()
    if extra_entries:
        catalog = catalog + list(extra_entries)
    free = run_free_suite(catalog)
    limit = run_limit_suite(catalog)
    matrix = _matrix_suite(catalog, free, n_values, trials, tol, seed)
    return free, limit, matrix
