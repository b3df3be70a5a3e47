"""Audit runner: verify every cataloged identity symbolically and numerically.

Every verdict comes from exact expansion: a free polynomial over formal q
for FREE entries, the quotient normal form for QUOTIENT entries.  Numeric
spot-checks evaluate the same expression trees with random complex
matrices, in real block form (FREE), or in the Gentile matrix
representation (QUOTIENT).  A FAIL verdict on a printed relation is a
first-class outcome; only disagreement between the two pipelines is an
error.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .catalog import FORMAL_Q, FREE, Q_EQ_1, build_catalog
from .errors import GateFailed
from .laurent import Q
from .linalg import max_abs_diff
from .rep import build_rep
from .symbolic import (Algebra, Expr, expand_free, fold, generators_of,
                       normal_order)

DEFAULT_TRIALS = 3
TOL = 1e-9  # crosscheck: PASS needs residual <= TOL, FAIL > 10 * TOL
RANDOM_DIM = 5
# the half-width of the spot checks' real and imaginary parts: E|z|^2 is
# 1/2, as for an entry uniform on the complex unit disk
_HALF_WIDTH = math.sqrt(3.0) / 2.0

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state's increment and
# the two multipliers of its output finalizer
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def _mix64(z):
    """The SplitMix64 finalizer of a uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """A counter-based SplitMix64 stream of uniforms on [0, 1).

    Draw i, counted from 0 over the stream's life, is
    ``(mix64(s + (i + 1) * GAMMA mod 2^64) >> 11) * 2^-53``.  The state s
    starts at 0 and takes each 64-bit limb L of ``seed``, least
    significant first, as ``s = mix64((s ^ L) + GAMMA)``; seed 0 has no
    limb.  The bytes depend on no library's generator.
    """
    __slots__ = ("_state", "_drawn")

    def __init__(self, seed: int):
        state = 0
        while seed:
            limb = seed & _MASK64
            z = np.array([((state ^ limb) + _GAMMA) & _MASK64], np.uint64)
            state = int(_mix64(z)[0])
            seed >>= 64
        self._state = state
        self._drawn = 0

    def random(self, shape) -> np.ndarray:
        """The next ``prod(shape)`` draws, in C order."""
        size = int(np.prod(shape))
        z = np.arange(self._drawn + 1, self._drawn + size + 1,
                      dtype=np.uint64)
        self._drawn += size
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        u = (_mix64(z) >> np.uint64(11)).astype(np.float64)
        u *= 2.0 ** -53
        return u.reshape(shape)


def _complex_algebra(assignment: dict, roots, dim: int,
                     rows=slice(None)) -> Algebra:
    """The algebra of :func:`eval_expr`, built once to fold many trees
    with one assignment and one set of tables."""
    eye = np.eye(dim, dtype=complex)

    def scalar(s):
        return np.array([s.eval_at(r) for r in roots])[rows, None, None] * eye

    q = np.array([r[1] for r in roots])[rows, None, None]
    return Algebra(gen=assignment.__getitem__, scalar=scalar, mul=np.matmul,
                   qscale=lambda x: q * x, power=np.linalg.matrix_power,
                   relabel=None)


def eval_expr(e: Expr, assignment: dict, roots, dim: int,
              rows=slice(None)) -> np.ndarray:
    """Numeric matrix values of an expression tree for a batch of B rows.

    Generators are stacked ``(B, dim, dim)`` arrays and ``roots`` is a
    list of tables, each the powers q^0 .. q^n of a root of unity (a
    ``GentileRep.roots``); row i is taken at table ``rows[i]``, by default
    table i.  Each scalar is evaluated once per table.  Every slice of the
    result equals the evaluation of that row alone bit for bit.
    """
    return fold(e, _complex_algebra(assignment, roots, dim, rows))


def _to_block(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The real ``(..., 2d, 2d)`` block form ``[[re, -im], [im, re]]`` of
    the complex ``(..., d, d)`` matrices ``re + i im``.

    The map is an exact ring embedding, so a tree folds in block form to
    the block form of its complex value, up to rounding.
    """
    d = re.shape[-1]
    out = np.empty(re.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = re
    out[..., d:, :d] = im
    np.negative(im, out=out[..., :d, d:])
    return out


def _block_algebras(roots, dim: int, rows):
    """A map from generators in real block form (:func:`_to_block`),
    stacked ``(B, 2 dim, 2 dim)`` float64 arrays, to :func:`eval_expr`'s
    algebra in that form: a scalar s is the block of s I, and q x is the
    block product of q I with x, q's block built once for all the maps.

    Every slice of a folded value equals that row folded alone, bit for
    bit.
    """
    eye = np.eye(dim)

    def scalar(s):
        v = np.array([s.eval_at(r) for r in roots])[rows, None, None]
        return _to_block(v.real * eye, v.imag * eye)

    q = scalar(Q)
    return lambda assignment: Algebra(
        gen=assignment.__getitem__, scalar=scalar, mul=np.matmul,
        qscale=lambda x: q @ x, power=np.linalg.matrix_power, relabel=None)


def _block_residual(lhs: np.ndarray, rhs: np.ndarray, dim: int) -> float:
    """The largest entrywise modulus of the complex difference whose block
    forms are ``lhs`` and ``rhs``, over the batch.

    Only the left blocks are read: rounding lets the right ones drift
    from their exact ``[[-im], [re]]`` by about 1e-15 relative.
    """
    diff = lhs - rhs
    return float(np.hypot(diff[..., :dim, :dim], diff[..., dim:, :dim]).max())


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
            "n_tested": self.n_tested,
            "seed": seed,
        }


def audit_table(results) -> str:
    """A fixed-width table of results, one row each under a header."""
    lines = [f"{'identity':36} {'strategy':9} {'spec':12} "
             f"{'verdict':7}  residual"]
    for r in results:
        resid = (r.residual_digest if r.numeric_residual is None
                 else f"{r.numeric_residual:.3e}")
        lines.append(f"{r.identity_id:36} {r.strategy:9} "
                     f"{r.specialization:12} {r.verdict:7}  {resid}")
    return "\n".join(lines)


def ladder_matrices(rep) -> dict:
    """The dense a^dag, b and N of ``rep`` as read-only batches of one
    ``(1, dim, dim)``, keyed by generator name for :func:`eval_expr`."""
    amp = np.asarray(rep.amp)
    mats = {"adag": np.diag(amp, -1), "b": np.diag(amp, 1),
            "N": np.diag(np.arange(rep.dim, dtype=complex))}
    for m in mats.values():
        m.flags.writeable = False
    return {name: m[None] for name, m in mats.items()}


def _digest(poly, limit: int = 120) -> str:
    text = repr(poly)
    return text if len(text) <= limit else text[:limit] + "..."


def _random_draws(names, rng, batch: int) -> dict:
    """``batch`` random matrices per name, in block form, stacked as
    ``(batch, 2 dim, 2 dim)``."""
    u = rng.random((batch, len(names), 2, RANDOM_DIM, RANDOM_DIM))
    # real and imaginary parts uniform on [-sqrt(3)/2, sqrt(3)/2); 2u - 1
    # is exact
    u *= 2.0
    u -= 1.0
    u *= _HALF_WIDTH
    blocks = _to_block(u[:, :, 0], u[:, :, 1])
    return {name: blocks[:, i] for i, name in enumerate(sorted(names))}


def audit_crosscheck(matrix) -> bool:
    """True when the symbolic verdicts of the matrix results agree with
    all numeric spot-checks; otherwise raises
    ``GateFailed("audit_crosscheck")`` at the first disagreement.

    PASS requires every residual <= TOL; FAIL requires some residual
    > 10*TOL.  Vacuously true for an empty list.
    """
    for r in matrix:
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


def run_full_audit(n_values, seed, trials=DEFAULT_TRIALS, entries=None):
    """Audit every catalog entry; returns the (free, limit, matrix) lists
    of :class:`IdentityResult`.

    One pass over the catalog (or ``entries``).  A FREE entry is expanded
    to a free polynomial over formal q, or specialized to q = 1 or -1 for
    the limit forms, and filed in the free or limit list.  Formal-q FREE
    entries are also spot-checked with random complex matrices, in real
    block form, and QUOTIENT entries get a normal-form verdict and are
    evaluated in the Gentile representation at every n, with one complex
    algebra per n; both go to the matrix list.

    Draw order, which keeps a seed's output stable: one
    ``SplitMix64(seed)`` stream serves the FREE formal-q entries in catalog
    order.  With R = len(n_values) * trials rows, entry e of G sorted
    generator names starts at draw b_e, the sum of 50 * R * G over the
    formal-q FREE entries before it.  In row t = n_index * trials + trial,
    name g gets the uniforms u_p[j, k] = draw
    ``b_e + (((t * G + g) * 2 + p) * 5 + j) * 5 + k`` for p = 0, 1 and sets
    entry (j, k) to ``(2 u_0 - 1) sqrt(3)/2 + i (2 u_1 - 1) sqrt(3)/2``.
    All rows of an entry are evaluated as one stacked batch, each with the
    table of powers of q = exp(2 pi i/(n + 1)) of its n; the residual is
    the largest entrywise |lhs - rhs| over the batch.
    """
    rng = SplitMix64(seed)
    reps = {n: build_rep(n) for n in n_values}
    tables = [reps[n].roots for n in n_values]
    # the batch's rows are (n, trial) in order, each with its n's table
    rows = np.repeat(np.arange(len(n_values)), trials)
    block_algebra = _block_algebras(tables, RANDOM_DIM, rows)
    free, limit, matrix, algebras = [], [], [], {}
    for entry in build_catalog() if entries is None else entries:
        spec = entry.specialization
        if entry.strategy == FREE:
            residual = expand_free(entry.lhs) - expand_free(entry.rhs)
            if spec != FORMAL_Q:
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
            alg = block_algebra(_random_draws(
                generators_of(entry.lhs) | generators_of(entry.rhs), rng,
                len(rows)))
            worst = _block_residual(fold(entry.lhs, alg),
                                    fold(entry.rhs, alg), RANDOM_DIM)
        else:
            residual_poly = normal_order(entry.lhs) - normal_order(entry.rhs)
            verdict = "FAIL" if residual_poly else "PASS"
            # built at the first QUOTIENT entry: their ladder matrices,
            # built before the FREE spot checks, raised the default audit's
            # peak RSS by 0.2 MB
            if not algebras:
                algebras = {n: _complex_algebra(
                    ladder_matrices(reps[n]), [reps[n].roots], reps[n].dim)
                    for n in n_values}
            worst = 0.0
            for alg in algebras.values():
                worst = max(worst, max_abs_diff(fold(entry.lhs, alg),
                                                fold(entry.rhs, alg)))
        matrix.append(IdentityResult(
            identity_id=entry.id, strategy=entry.strategy,
            specialization=spec, residual_digest=None,
            numeric_residual=worst, n_tested=tuple(n_values),
            verdict=verdict))
    return free, limit, matrix
