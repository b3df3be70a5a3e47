"""Audit runner: verify every cataloged identity symbolically and numerically.

Every verdict comes from exact expansion: a free polynomial over formal q
for FREE entries, the quotient normal form for QUOTIENT entries.  Numeric
spot-checks evaluate the same expression trees with random complex
matrices (FREE) or in the Gentile matrix representation (QUOTIENT).  A
FAIL verdict on a printed relation is a first-class outcome; only
disagreement between the two pipelines is an error.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .catalog import FORMAL_Q, FREE, Q_EQ_1, build_catalog
from .errors import GateFailed
from .linalg import max_abs_diff
from .rep import build_rep
from .symbolic import (Algebra, Expr, expand_free, fold, generators_of,
                       normal_order)

DEFAULT_N_VALUES = tuple(range(1, 9))
DEFAULT_TRIALS = 3
TOL = 1e-9  # crosscheck: PASS needs residual <= TOL, FAIL > 10 * TOL
RANDOM_DIM = 5


def eval_expr(e: Expr, assignment: dict, roots, dim: int) -> np.ndarray:
    """Numeric matrix values of an expression tree for a batch of B rows.

    Generators are stacked ``(B, dim, dim)`` arrays and ``roots`` is a
    list of B tables; row i is taken at the root of unity whose powers
    q^0 .. q^n are ``roots[i]`` (a ``GentileRep.roots``).  Every slice of
    the result equals the evaluation of that row alone bit for bit.
    """
    def at(s):
        return np.array([s.eval_at(r) for r in roots])[:, None, None]

    q = np.array([r[1] for r in roots])[:, None, None]
    return fold(e, Algebra(
        gen=assignment.__getitem__,
        scalar=lambda s: at(s) * np.eye(dim, dtype=complex),
        mul=np.matmul, qscale=lambda x: q * x,
        power=np.linalg.matrix_power))


class IdentityResult(Record):
    __slots__ = _fields = (
        "identity_id",
        "strategy",
        "specialization",
        "residual_digest",  # None when numeric_residual is set
        "numeric_residual",
        "n_tested",
        "verdict",
    )

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


class AuditReport(Record):
    __slots__ = _fields = ("results", "seed")

    def __init__(self, results: list, seed: int):
        ids = [r.identity_id for r in results]
        assert len(ids) == len(set(ids)), "duplicate result ids"
        super().__init__(results, seed)

    def table(self) -> str:
        lines = [f"{'identity':36} {'strategy':9} {'spec':12} "
                 f"{'verdict':7}  residual"]
        for r in self.results:
            resid = (r.residual_digest if r.numeric_residual is None
                     else f"{r.numeric_residual:.3e}")
            lines.append(f"{r.identity_id:36} {r.strategy:9} "
                         f"{r.specialization:12} {r.verdict:7}  {resid}")
        return "\n".join(lines)


def _digest(poly, limit: int = 120) -> str:
    text = repr(poly)
    return text if len(text) <= limit else text[:limit] + "..."


def _random_draws(names, rng, batch: int) -> dict:
    """``batch`` random matrices per name, stacked as ``(batch, dim, dim)``."""
    u = rng.random((batch, len(names), 2, RANDOM_DIM, RANDOM_DIM))
    # entries uniform on the complex unit disk; uniform(0, 2 pi) is 2 pi * u
    mats = np.sqrt(u[:, :, 0]) * np.exp(1j * (2.0 * np.pi * u[:, :, 1]))
    return {name: mats[:, i] for i, name in enumerate(sorted(names))}


def audit_crosscheck(matrix_report: AuditReport) -> bool:
    """True when symbolic verdicts agree with all numeric spot-checks;
    otherwise raises ``GateFailed("audit_crosscheck")`` at the first
    disagreement.

    PASS requires every residual <= TOL; FAIL requires some residual
    > 10*TOL.  Vacuously true for an empty report.
    """
    for r in matrix_report.results:
        if r.numeric_residual is None:
            continue
        if r.verdict == "PASS" and r.numeric_residual > TOL:
            raise GateFailed("audit_crosscheck", (
                f"inconsistent verdicts for {r.identity_id!r}: symbolic "
                f"PASS but numeric residual {r.numeric_residual:.3e}"))
        if r.verdict == "FAIL" and r.n_tested \
                and r.numeric_residual <= 10.0 * TOL:
            raise GateFailed("audit_crosscheck", (
                f"inconsistent verdicts for {r.identity_id!r}: symbolic "
                f"FAIL but numeric residual {r.numeric_residual:.3e}"))
    return True


def run_full_audit(n_values=DEFAULT_N_VALUES, trials=DEFAULT_TRIALS, seed=0,
                   entries=None):
    """Audit every catalog entry; returns (free, limit, matrix) reports.

    One pass over the catalog (or ``entries``).  A FREE entry is expanded
    to a free polynomial over formal q, or specialized to q = 1 or -1 for
    the limit forms, and reported in the free or limit report.  Formal-q
    FREE entries are also spot-checked with random complex matrices, and
    QUOTIENT entries get a normal-form verdict and are evaluated in the
    Gentile representation at every n; both go to the matrix report.

    Draw order, which keeps a seed's output stable: one generator seeded
    with ``seed`` serves the FREE formal-q entries in catalog order.  Each
    entry takes, for each n, for each of ``trials`` draws, for each of its
    generator names in sorted order, a 5x5 block of ``uniform(0, 1)``
    numbers r and then a 5x5 block of ``uniform(0, 2 pi)`` numbers phi, and
    sets that generator to ``sqrt(r) * exp(1j * phi)``.  All draws of an
    entry are evaluated as one stacked batch, each row with the table of
    powers of q = exp(2 pi i/(n + 1)) of its n; the residual is the largest
    entrywise |lhs - rhs| over the batch.
    """
    rng = np.random.default_rng(seed)
    reps = {n: build_rep(n) for n in n_values}
    # the batch's rows are (n, trial) in order, each with its n's table
    row_roots = [reps[n].roots for n in n_values for _ in range(trials)]
    free, limit, matrix = [], [], []
    for entry in build_catalog() if entries is None else entries:
        spec = entry.specialization
        if entry.strategy == FREE:
            residual = expand_free(entry.lhs) - expand_free(entry.rhs)
            if spec == FORMAL_Q:
                passed = residual.is_zero
            else:
                residual = residual.specialize_unit(1 if spec == Q_EQ_1
                                                    else -1)
                passed = not residual
            verdict = "PASS" if passed else "FAIL"
            (free if spec == FORMAL_Q else limit).append(IdentityResult(
                identity_id=entry.id, strategy=entry.strategy,
                specialization=spec,
                residual_digest="0" if passed else _digest(residual),
                numeric_residual=None, n_tested=(), verdict=verdict))
            if spec != FORMAL_Q:
                continue  # limit forms have no finite-n specialization
            assign = _random_draws(
                generators_of(entry.lhs) | generators_of(entry.rhs), rng,
                len(row_roots))
            worst = max_abs_diff(
                eval_expr(entry.lhs, assign, row_roots, RANDOM_DIM),
                eval_expr(entry.rhs, assign, row_roots, RANDOM_DIM))
        else:
            residual_poly = normal_order(entry.lhs) - normal_order(entry.rhs)
            verdict = "PASS" if residual_poly.is_zero else "FAIL"
            worst = 0.0
            for n in n_values:
                rep = reps[n]
                assign = {"adag": rep.a_dag[None], "b": rep.b[None],
                          "N": rep.num[None]}
                lhs = eval_expr(entry.lhs, assign, [rep.roots], rep.dim)[0]
                rhs = eval_expr(entry.rhs, assign, [rep.roots], rep.dim)[0]
                worst = max(worst, max_abs_diff(lhs, rhs))
        matrix.append(IdentityResult(
            identity_id=entry.id, strategy=entry.strategy,
            specialization=spec, residual_digest=None,
            numeric_residual=worst, n_tested=tuple(n_values),
            verdict=verdict))
    return (AuditReport(results=free, seed=0),
            AuditReport(results=limit, seed=0),
            AuditReport(results=matrix, seed=seed))
