"""Paper relations and references that only the tests evaluate.

Each paper relation restates an equation of the paper directly on the
dense ladder matrices of :func:`dense_ladder`, built from the
``build_rep`` amplitudes, so a test can hold the library to it.  The
scan references are the all-pairs loops that the library's sorted sweeps
replaced; the sweeps must give exactly their results.  The dense
references are the matrix routes that the library's band routes
replaced, down to the Jacobi eigensolver; the bands must give exactly
their bits.  The per-nu closed-form rows of the coherent state are the
comparison of which the library keeps only the largest modulus gap; it
must give exactly their largest.  The su(2) references solve on numpy
scalars, one entry at a time, and verify by nine dense products of J_+
expanded from its band; the library must give exactly their bits.  The
SplitMix64 stream is restated on Python ints from its published
constants; the audit's numpy stream must give exactly its draws.  The
tree substitution is the copy walk that renaming sums replaced: ``fold``
of a ``RenameSum`` must give exactly the values of its fully substituted
tree.  A Laurent scalar given as a map exponent -> rational is summed
from the library's monomials: the library builds Laurent scalars only
from their fields, numerators over one denominator.  The dense complex
evaluator, its ladder matrices and the one-rep dense normal form are the
matrix routes that the sweep's band form replaced; the bands must
densify to their values within rounding.  The one-rep quadratic
diagonals and the per-nu twist phase are what the sweep's diagonals and
the coherent state's reads of the roots table replaced; the library must
give exactly their bits.  The whole-array residual is the tests' measure
of closeness.  Only the eigensolver and the Bose-limit check check their
input: the others are called only with valid arguments.
"""

import cmath
import math
import sys
from functools import reduce
from itertools import permutations

import numpy as np

from gentile.coherent import LambdaChoice, closed_form_deltas
from gentile.errors import GentileError
from gentile.laurent import ZERO, LaurentScalar
from gentile.oscillator import (CLUSTER_TOL, _case_levels,
                                _prose_multiplicity, build_hamiltonian,
                                case_class, per_state_energy)
from gentile.rep import build_rep, sweep_ladder
from gentile.su2 import (NODE_SEPARATION, TOL, DiagonalChoice,
                         ladder_targets, leja_order, operator_diagonal)
from gentile.symbolic import (Add, Algebra, Expr, Gen, Mul, Pow,
                              ProductSum, RenameSum, Scal, Sub, fold)


def laurent_scalar(terms) -> LaurentScalar:
    """The Laurent scalar of a map exponent -> rational, zeros allowed,
    summed in key order from ``from_rational``, ``q_power`` and ``+``."""
    total = ZERO
    for k, c in terms.items():
        total = (total
                 + LaurentScalar.from_rational(c) * LaurentScalar.q_power(k))
    return total


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise maximum modulus of a - b over one whole array, exactly 0
    for identical input; ``linalg.max_abs_diff`` takes it row by row."""
    diff = np.abs(np.subtract(a, b))
    return float(np.max(diff)) if diff.size else 0.0


def lambda_value(choice, v: int, roots) -> complex:
    """The twist phase lambda(nu, n), from the table ``roots`` of
    q^0 .. q^n (``GentileRep.roots``)."""
    if choice is LambdaChoice.ROOT_OF_UNITY_PLUS:
        return roots[v]
    if choice is LambdaChoice.ROOT_OF_UNITY_MINUS:
        return roots[-v % len(roots)]
    return complex((-1) ** v)  # ALTERNATING


def rep_quadratic_diagonals(rep):
    """Diagonals of a^dag b, b^dag a, a b^dag and b a^dag of one rep, each
    band product with a 0 appended or prepended."""
    amp = np.asarray(rep.amp)
    zero = np.zeros(1, dtype=complex)
    up_down = amp * amp
    up_down_bar = np.conj(amp) * np.conj(amp)
    return (np.concatenate((zero, up_down)),
            np.concatenate((zero, up_down_bar)),
            np.concatenate((up_down_bar, zero)),
            np.concatenate((up_down, zero)))


def bracket_number(n: int, v: int) -> complex:
    """The bracket number <v>_n = sum_{j=0}^{v-1} exp(i*2*pi*j/(n+1)).

    Computed as the finite geometric sum rather than the ratio form, so
    v = 0 is exactly the int 0 and there is no 0/0 anywhere.
    """
    theta = 2.0 * math.pi / (n + 1)
    return sum(cmath.exp(1j * theta * j) for j in range(v))


def dense_ladder(rep):
    """The dense a^dag, b and N of one mode: a^dag and b carry the
    amplitudes ``rep.amp`` on their sub- and superdiagonal."""
    return (np.diag(rep.amp, -1), np.diag(rep.amp, 1),
            np.diag(np.arange(rep.dim, dtype=float)).astype(complex))


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


def eval_one(e, assignment: dict, roots, dim: int) -> np.ndarray:
    """:func:`eval_expr` of one (dim, dim) matrix per generator, at the
    root of unity whose powers are ``roots``: a batch of one."""
    batch = {name: m[None] for name, m in assignment.items()}
    return eval_expr(e, batch, [roots], dim)[0]


def ladder_matrices(rep) -> dict:
    """The dense a^dag, b and N of ``rep`` as read-only batches of one
    ``(1, dim, dim)``, keyed by generator name for :func:`eval_expr`."""
    amp = np.asarray(rep.amp)
    mats = {"adag": np.diag(amp, -1), "b": np.diag(amp, 1),
            "N": np.diag(np.arange(rep.dim, dtype=complex))}
    for m in mats.values():
        m.flags.writeable = False
    return {name: m[None] for name, m in mats.items()}


def densify(value, reps) -> list:
    """The dense (dim, dim) matrix of each rep of a sweep from a value in
    band form (``rep.Bands``); every slot outside a rep's matrix must be
    exactly 0."""
    dense = [np.zeros((rep.dim, rep.dim), dtype=complex) for rep in reps]
    for o, band in value.bands.items():
        assert band.shape == (len(reps), max(rep.dim for rep in reps))
        for row, rep, out in zip(band, reps, dense):
            r = np.arange(len(row))
            inside = (r < rep.dim) & (r + o >= 0) & (r + o < rep.dim)
            assert not row[~inside].any(), (o, rep.n)
            out[r[inside], r[inside] + o] = row[inside]
    return dense


def dense_eval_rep(poly, rep) -> np.ndarray:
    """``QuotientPoly.eval_rep`` one rep at a time into a dense matrix:
    each (j, k) group of the normal form fills one band."""
    exps, values, groups = poly._band_tables()
    n, dim, roots = rep.n, rep.dim, rep.roots
    total = np.zeros((dim, dim), dtype=complex)
    coefs = values @ np.array([roots[e % dim] for e in exps], dtype=complex)
    amp = np.asarray(rep.amp)
    max_j = max((j for j, _, _, _ in groups if j <= n), default=0)
    max_k = max((k for _, k, _, _ in groups if k <= n), default=0)
    lowered = np.ones((max_k + 1, dim), dtype=complex)
    for k in range(1, max_k + 1):
        lowered[k, k:] = lowered[k - 1, k:] * amp[:dim - k]
    raised = np.ones((max_j + 1, dim), dtype=complex)
    for j in range(1, max_j + 1):
        raised[j, :dim - j] = raised[j - 1, :dim - j] * amp[j - 1:]
    flat = total.reshape(-1)
    for j, k, rows, ms in groups:
        width = n + 1 - max(j, k)
        if width <= 0:
            continue
        nu = np.arange(k, k + width, dtype=float)
        band = coefs[rows] @ nu ** ms[:, None]
        band *= lowered[k, k:k + width] * raised[j, :width]
        # entries (nu - k + j, nu), nu = k .. k + width - 1
        start = j * dim + k
        flat[start:start + width * (dim + 1):dim + 1] += band
    return total


def norm_bound(e, norms) -> float:
    """Upper bound on the operator norm of every subexpression value."""
    if isinstance(e, Gen):
        return norms[e.name]
    if isinstance(e, Scal):
        return float(sum(abs(c) for c in e.value.terms.values()))
    if isinstance(e, (Add, Sub)):
        return norm_bound(e.left, norms) + norm_bound(e.right, norms)
    if isinstance(e, Pow):
        return norm_bound(e.base, norms) ** e.exponent
    if isinstance(e, ProductSum):
        m = len(e.operands)
        orders = m if e.cyclic else math.factorial(m)
        return orders * math.prod(norm_bound(x, norms) for x in e.operands)
    if isinstance(e, RenameSum):
        symbols = list(e.symbols)
        orders = ([symbols[k:] + symbols[:k] for k in range(len(symbols))]
                  if e.cyclic else permutations(symbols))
        return sum(norm_bound(e.body, {**norms, **{
            s: norms[t] for s, t in zip(symbols, order)}})
            for order in orders)
    product_bound = norm_bound(e.left, norms) * norm_bound(e.right, norms)
    return product_bound if isinstance(e, Mul) else 2.0 * product_bound


# SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014), on Python ints reduced mod 2^64
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def splitmix64_mix(z: int) -> int:
    """The SplitMix64 output finalizer of a 64-bit int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_outputs(state: int):
    """The endless 64-bit outputs of SplitMix64 started at ``state``."""
    while True:
        state = (state + SPLITMIX64_GAMMA) & MASK64
        yield splitmix64_mix(state)


def splitmix64_uniforms(seed: int):
    """The endless uniforms of ``audit.SplitMix64(seed)``: the state takes
    each 64-bit limb of the seed, least significant first, and each
    output keeps its top 53 bits."""
    state = 0
    while seed:
        state = splitmix64_mix(
            ((state ^ (seed & MASK64)) + SPLITMIX64_GAMMA) & MASK64)
        seed >>= 64
    for z in splitmix64_outputs(state):
        yield (z >> 11) / 2.0 ** 53


class GrassmannOps:
    """Operator actions on the coherent-state module for one (n, lambda)
    choice.

    Module elements are (n+1, n+1) complex arrays indexed [nu, k], or
    stacks of them along leading axes.  The b amplitudes are the ladder
    amplitudes ``build_rep(n).amp``.
    """

    def __init__(self, n: int, choice):
        self.n = n
        self.rep = build_rep(n)
        self.lam = [lambda_value(choice, v, self.rep.roots)
                    for v in range(n + 1)]

    def apply_b(self, e: np.ndarray) -> np.ndarray:
        """Move every row nu of e to nu - 1 with amplitude sqrt(<nu>)."""
        out = np.zeros(e.shape, dtype=complex)
        out[..., :-1, :] += np.asarray(self.rep.amp)[:, None] * e[..., 1:, :]
        return out

    def apply_psi(self, e: np.ndarray) -> np.ndarray:
        """Left multiplication by psi; the k = n column truncates away."""
        out = np.zeros(e.shape, dtype=complex)
        out[..., 1:] += np.array(self.lam)[:, None] * e[..., :-1]
        return out


def ladder_commutation_check(n: int, tol: float = 1e-12):
    """Residuals of [H, x] = f(N-1) x = x f(N) for x in {adag, a, bdag, b}.

    f is +/- cos(2 pi . /(n+1)) with the sign of the relation.  Returns a
    dict relation -> (left-ordered residual, right-ordered residual) plus
    the overall pass flag.
    """
    rep = build_rep(n)
    a_dag, b, _ = dense_ladder(rep)
    h = np.diag(build_hamiltonian([rep])[0])
    cos_n = np.diag([math.cos(2 * math.pi * v / (n + 1))
                     for v in range(rep.dim)])
    cos_nm1 = np.diag([math.cos(2 * math.pi * (v - 1) / (n + 1))
                       for v in range(rep.dim)])
    cases = {
        "adag": (a_dag, +1),
        "a": (a_dag.conj().T, -1),
        "bdag": (b.conj().T, +1),
        "b": (b, -1),
    }
    residuals = {}
    for name, (x, sign) in cases.items():
        comm = h @ x - x @ h
        if sign > 0:
            left = max_abs_diff(comm, cos_nm1 @ x)
            right = max_abs_diff(comm, x @ cos_n)
        else:
            left = max_abs_diff(comm, -(cos_n @ x))
            right = max_abs_diff(comm, -(x @ cos_nm1))
        residuals[name] = (left, right)
    passed = all(max(pair) <= tol for pair in residuals.values())
    return residuals, passed


def move_relation_check(n: int, choice, power: int):
    """Residuals of the four psi move relations at the given power.

    Relations checked (as module transformations, on every basis element):
    psi bdag^p, psi adag^p, b^p psi, a^p psi, each against
    (lambda(p)/lambda(0)) times the reordered side.  A ladder operator
    acts on the state index of a module element as ``X @ e``.
    """
    ops = GrassmannOps(n, choice)
    a_dag, b, _ = dense_ladder(ops.rep)
    ratio = ops.lam[power] / ops.lam[0]
    residuals = {}
    for name, x, psi_left in (("psi_bdag", b.conj().T, True),
                              ("psi_adag", a_dag, True),
                              ("b_psi", b, False),
                              ("a_psi", a_dag.conj().T, False)):
        x_power = np.linalg.matrix_power(x, power)
        worst = 0.0
        for k in range(n + 1):
            # the basis elements |nu> psi^k, nu = 0..n, stacked on axis 0
            e = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
            e[range(n + 1), range(n + 1), k] = 1.0
            psi_x = ops.apply_psi(x_power @ e)
            x_psi = x_power @ ops.apply_psi(e)
            lhs, rhs = (psi_x, x_psi) if psi_left else (x_psi, psi_x)
            worst = max(worst, float(np.max(np.abs(lhs - ratio * rhs))))
        residuals[name] = worst
    return residuals


def bose_limit_check(n: int, v_max: int):
    """Worst deviation of E(nu) from nu + 1/2 for nu <= v_max << n.

    Also reports the deviation from the printed intermediate
    approximation pi*nu/(n+1) * cot(pi/(n+1)) + cos(2 pi/(n+1))/2.
    """
    if v_max > n / 100:
        raise ValueError(
            f"v_max = {v_max} too large for n = {n} (need v_max <= n/100)")
    t = math.pi / (n + 1)
    worst_bose = 0.0
    worst_approx = 0.0
    for v in range(v_max + 1):
        e = per_state_energy(n, v)
        worst_bose = max(worst_bose, abs(e - (v + 0.5)))
        approx = math.pi * v / (n + 1) / math.tan(t) + 0.5 * math.cos(2 * t)
        worst_approx = max(worst_approx, abs(e - approx))
    return worst_bose, worst_approx


# -- all-pairs scans that the sorted sweeps replaced --------------------------


def spectrum_clustering(n: int):
    """Levels and degeneracy discrepancies of ``closed_form_spectrum``,
    counting each level's multiplicity by a scan over every state."""
    raw_levels, _ = _case_levels(n)
    per_state = [per_state_energy(n, v) for v in range(n + 1)]
    unique = []
    for e in sorted(raw_levels):
        if not unique or abs(e - unique[-1]) > CLUSTER_TOL:
            unique.append(e)
    levels = []
    for e in unique:
        mult = sum(1 for x in per_state if abs(x - e) <= CLUSTER_TOL)
        levels.append((e, mult))
    cls = case_class(n)
    discrepancies = []
    for idx, (_, mult) in enumerate(levels):
        claimed = _prose_multiplicity(cls, idx, len(levels))
        if mult != claimed:
            discrepancies.append((idx, mult, claimed))
    return tuple(levels), tuple(discrepancies)


def first_close_nodes(nodes):
    """``(pair, separation)`` that ``su2._check_nodes`` raises for, from a
    scan of all pairs in order, or None when the nodes are distinct."""
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            sep = abs(nodes[i] - nodes[j])
            if sep <= NODE_SEPARATION:
                return (i + 1, j + 1), sep
    return None


def arcsin_collisions(diag_m):
    """Collision pairs of ``number_from_arcsin`` from a scan of all pairs."""
    collisions = []
    for v in range(len(diag_m)):
        for w in range(v + 1, len(diag_m)):
            if abs(diag_m[v] - diag_m[w]) <= 1e-9:
                collisions.append((v, w))
    return tuple(collisions)


def e010_residual_by_pairs(rep):
    """``su2.e010_residual`` evaluating p at every inner bracket twice."""
    n = rep.n
    brackets = rep.bracket_numbers
    worst = 0.0
    for v in range(n + 1):
        lo = scalar_newton_eval(rep.nodes, rep.divided, brackets[v])
        hi = scalar_newton_eval(rep.nodes, rep.divided, brackets[v + 1])
        total = abs(brackets[v]) * abs(lo) ** 2 \
            - abs(brackets[v + 1]) * abs(hi) ** 2
        worst = max(worst, abs(total - (2 * v - n)))
    return worst


# -- the Jacobi eigensolver and the dense routes the bands replaced -----------

# the n at which tests hold each band route to its dense reference bit for bit
BITWISE_N = (*range(1, 129), 256, 512, 1024)
JACOBI_TOL = 1e-10
MAX_SWEEPS = 100


class NoConvergence(GentileError):
    pass


class NotSquare(GentileError):
    pass


class NotHermitian(GentileError):
    pass


class DomainError(GentileError):
    pass


def _check_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected square matrix, got {m.shape}")
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not dev <= tol:  # a NaN or infinite entry makes dev NaN
        raise NotHermitian(f"max |m - m^H| = {dev:.3e} exceeds tol {tol:.3e}")
    return m


def hermitian_eigen(m: np.ndarray, tol: float = JACOBI_TOL,
                    max_sweeps: int = MAX_SWEEPS):
    """Eigenvalues (ascending) and unitary eigenbasis of a Hermitian matrix.

    Cyclic Jacobi with threshold pivoting.  Returns ``(w, u)`` with
    ``m = u @ diag(w) @ u^H`` up to the documented residual bound.

    Every intermediate is bounded by 2 * dim * max|m|, so entries above
    float max / (2 * dim) raise DomainError instead of overflowing.
    """
    m = _check_hermitian(m, tol)
    dim = m.shape[0]
    if dim == 0:
        return np.empty(0), np.empty((0, 0), dtype=complex)
    biggest = float(np.max(np.abs(m)))
    limit = sys.float_info.max / (2 * dim)
    if biggest > limit:
        raise DomainError(
            f"entry of modulus {biggest:.3e} would overflow the Jacobi "
            f"iteration (limit {limit:.3e} at dimension {dim})")
    a = (m + m.conj().T) / 2.0
    u = np.eye(dim, dtype=complex)
    if dim == 1:
        return np.array([a[0, 0].real]), u

    scale = float(np.max(np.abs(a))) or 1.0
    stop = 1e-15 * scale * dim

    for _ in range(max_sweeps):
        off = float(np.max(np.abs(np.triu(a, 1))))
        if off <= stop:
            break
        # one cyclic sweep; skip pivots already below threshold
        threshold = max(off / dim, stop)
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                mag = abs(apq)
                if mag < stop or mag < threshold * 1e-4:
                    continue
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # unitary plane rotation in the (p, q) plane
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(phase) * col_q
                a[:, q] = -s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + s * phase * row_q
                a[q, :] = -s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                ucol_p = u[:, p].copy()
                ucol_q = u[:, q].copy()
                u[:, p] = c * ucol_p + s * np.conj(phase) * ucol_q
                u[:, q] = -s * phase * ucol_p + c * ucol_q
    else:
        # final check: the loop may have exhausted sweeps exactly at convergence
        off = float(np.max(np.abs(np.triu(a, 1))))
        if off > stop:
            raise NoConvergence(
                f"Jacobi iteration did not converge in {max_sweeps} sweeps "
                f"(off-diagonal max {off:.3e})")

    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    return w[order], u[:, order]


def matrix_function(m: np.ndarray, f, tol: float = JACOBI_TOL,
                    domain=None) -> np.ndarray:
    """Spectral function f(m) = U f(Lambda) U^H of a Hermitian matrix.

    ``domain`` is an optional (lo, hi) interval; eigenvalues outside it by
    more than ``tol`` raise DomainError, marginal ones are clipped.
    """
    w, u = hermitian_eigen(m, tol)
    if domain is not None:
        lo, hi = domain
        if not (np.all(w >= lo - tol) and np.all(w <= hi + tol)):
            raise DomainError(
                f"eigenvalue outside domain [{lo}, {hi}] by more than {tol}")
        w = np.clip(w, lo, hi)
    fw = np.array([f(x) for x in w], dtype=complex)
    return u @ np.diag(fw) @ u.conj().T


def dense_sine_matrix(rep):
    """M = (i/2)(a^dag b - b^dag a + a b^dag - b a^dag), by BLAS products."""
    a_dag, b, _ = dense_ladder(rep)
    a, b_dag = a_dag.conj().T, b.conj().T
    return 0.5j * (a_dag @ b - b_dag @ a + a @ b_dag - b @ a_dag)


def dense_arcsin_values(rep):
    """Diagonal of ((n+1)/2pi) arcsin(M) by the Jacobi spectral function."""
    rec = (rep.n + 1) / (2.0 * math.pi) * matrix_function(
        dense_sine_matrix(rep), math.asin, 1e-12, domain=(-1.0, 1.0))
    return np.real(np.diag(rec))


def dense_eigenstate_residual(state):
    """Max-abs coefficient of b|psi> - psi|psi> on the dense module element
    with delta on its diagonal."""
    ops = GrassmannOps(state.rep.n, state.choice)
    element = np.diag(state.delta)
    lhs = ops.apply_b(element)
    rhs = ops.apply_psi(element)
    return float(np.max(np.abs(lhs - rhs)))


def closed_form_rows(state):
    """Per-nu comparison of the recursion's delta with the printed closed
    form: rows (nu, recursion, closed form, sign in {+1, -1} relating
    them, |difference of moduli|)."""
    sign = {LambdaChoice.ROOT_OF_UNITY_PLUS: 1,
            LambdaChoice.ROOT_OF_UNITY_MINUS: -1,
            LambdaChoice.ALTERNATING: 0}[state.choice]
    rows = []
    for v, (rec, closed) in enumerate(
            zip(state.delta, closed_form_deltas(state.rep.roots, sign))):
        rel = 1 if abs(closed - rec) <= abs(closed + rec) else -1
        rows.append((v, rec, closed, rel, abs(abs(closed) - abs(rec))))
    return rows


# -- the su(2) solve on numpy scalars and its nine-product check --------------

# the n at which tests hold the su(2) solve and check to these bit for bit
SU2_BITWISE_N = (*range(1, 129), 256)


def diagonal_operator(rep, choice):
    """The dense matrix A of one diagonal choice, by a BLAS product of
    the ladder matrices."""
    a_dag, b, num = dense_ladder(rep)
    if choice is DiagonalChoice.NUM:
        return num
    a, b_dag = a_dag.conj().T, b.conj().T
    left, right = {DiagonalChoice.ADAG_B: (a_dag, b),
                   DiagonalChoice.BDAG_A: (b_dag, a),
                   DiagonalChoice.ADAG_A: (a_dag, a),
                   DiagonalChoice.A_ADAG: (a, a_dag)}[choice]
    return left @ right


def leja_shortfall(nodes, order):
    """Largest relative shortfall of ``order`` from the Leja rule: of the
    first node's modulus from the largest, and at each later step of the
    node's sum of log distances to the nodes taken from the best among
    the nodes left, the sums taken with math.log in Python floats."""
    moduli = [abs(x) for x in nodes]
    worst = (max(moduli) - moduli[order[0]]) / max(moduli)
    score = [0.0] * len(nodes)
    for step in range(1, len(order)):
        left = order[step:]
        for i in left:
            score[i] += math.log(abs(nodes[i] - nodes[order[step - 1]]))
        best = max(score[i] for i in left)
        worst = max(worst, (best - score[order[step]]) / (1.0 + abs(best)))
    return worst


def scalar_divided_differences(nodes, values):
    """Newton divided-difference table d_0 .. d_(m-1) over distinct nodes."""
    m = len(nodes)
    divided = list(values)
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) \
                / (nodes[i] - nodes[i - level])
    return divided


def scalar_newton_eval(nodes, divided, z: complex) -> complex:
    """Horner evaluation of the interpolant in the Newton basis."""
    acc = complex(divided[-1])
    for k in range(len(divided) - 2, -1, -1):
        acc = acc * (z - nodes[k]) + divided[k]
    return acc


def scalar_solve(n: int, choice):
    """The divided-difference table over the Leja-ordered nodes and p at
    the nodes in state order, on numpy complex128 scalars."""
    rep = build_rep(n)
    nodes = list(operator_diagonal(*sweep_ladder([rep]), choice)[0, 1:])
    c_plus, amp = ladder_targets([n])[0], np.asarray(rep.amp)
    targets = [c_plus[v] / amp[v] for v in range(n)]
    order = leja_order(np.array([nodes]), np.array([n]))[0].tolist()
    leja = [nodes[k] for k in order]
    divided = scalar_divided_differences(leja, [targets[k] for k in order])
    return divided, [scalar_newton_eval(leja, divided, x) for x in nodes]


def dense_verify_representation(rep):
    """``su2.verify_representation`` by nine dense products of J_+
    expanded from its band, J_- = J_+^H and J_z, each residual a Python
    float."""
    jp = np.diag(rep.j_plus, -1)
    jm, jz = jp.conj().T, np.diag(rep.j_z).astype(complex)
    eye = np.eye(jp.shape[0])
    residuals = {
        "comm87": max_abs_diff(jp @ jm - jm @ jp, 2.0 * jz),
        "comm88p": max_abs_diff(jz @ jp - jp @ jz, jp),
        "comm88m": max_abs_diff(jz @ jm - jm @ jz, -jm),
        "casimir": max_abs_diff(
            jz @ jz + (jp @ jm + jm @ jp) / 2.0,
            rep.j * (rep.j + 1.0) * eye),
    }
    if rep.choice is DiagonalChoice.ADAG_B:
        residuals["e010"] = float(e010_residual_by_pairs(rep))
    return residuals, all(r <= TOL for r in residuals.values())


def _map_children(e: Expr, f) -> Expr:
    """A node of ``e``'s type with ``f`` applied to each child expression.

    A node's field values, in its class's field order, are also its
    constructor arguments.
    """
    return type(e)(*[f(v) if isinstance(v, Expr)
                     else tuple(map(f, v)) if isinstance(v, tuple) else v
                     for v in e._values])


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace generators by name; values are Expr or generator names.
    ``e`` holds no ``RenameSum``."""
    if isinstance(e, Gen):
        repl = mapping.get(e.name, e)
        return Gen(repl) if isinstance(repl, str) else repl
    return _map_children(e, lambda x: substitute(x, mapping))


def expand_renames(e: Expr) -> Expr:
    """``e`` with each ``RenameSum`` written out as the left-folded sum of
    substituted copies of its body, one per permutation or rotation of its
    symbols in ``itertools.permutations`` or rotation order."""
    if not isinstance(e, RenameSum):
        return _map_children(e, expand_renames)
    body, symbols = expand_renames(e.body), list(e.symbols)
    orders = ([symbols[k:] + symbols[:k] for k in range(len(symbols))]
              if e.cyclic else permutations(symbols))
    return reduce(Add, [substitute(body, dict(zip(symbols, order)))
                        for order in orders])
