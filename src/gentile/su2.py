"""su(2) representations from a single set of Gentile ladder operators.

J_z = N - n/2; J_+ = sum_l conj(lambda_l) A^l a_dag with A any diagonal
operator commuting with N.  The interpolation coefficients lambda_l are
solved by Newton divided differences over the n eigenvalue nodes of A on
|1>..|n>, the linear problem that makes each raising matrix element equal
the standard spin value c_+(nu) = sqrt((n-nu)(nu+1)).  The quadratic
coefficient equations from the [J_+, J_-] = 2 J_z diagonal are then
verified a posteriori.  A and J_z are held as diagonals and J_+ as its
one band, so no matrix is built.  Every n of a sweep is solved and checked
in one pass on padded arrays, and each n has the bits of its sweep alone.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ._record import Record
from .errors import DegenerateNodes
from .linalg import max_abs_diff
from .rep import (_close_pairs, build_rep, quadratic_diagonals,
                  sweep_ladder)

NODE_SEPARATION = 1e-9
TOL = 1e-9  # bound on every residual of verify_representation


class DiagonalChoice(Enum):
    NUM = "num"
    ADAG_B = "adagb"
    BDAG_A = "bdaga"
    ADAG_A = "adaga"
    A_ADAG = "aadag"


# Largest n up to which every n passes verify_representation or has
# degenerate nodes, from a sweep of n = 1..1024 (the CLI's maximum); the
# CLI refuses a larger n.  num first fails at 785, adagb at 100 and bdaga
# at 131; adaga has degenerate nodes at every n >= 2, aadag at every n >= 4.
N_LIMIT = {
    DiagonalChoice.NUM: 784,
    DiagonalChoice.ADAG_B: 99,
    DiagonalChoice.BDAG_A: 130,
    DiagonalChoice.ADAG_A: 1024,
    DiagonalChoice.A_ADAG: 1024,
}


def ladder_targets(n_values) -> np.ndarray:
    """Standard real raising matrix elements c_+(0)..c_+(n) of each n of a
    sweep, one row each, 0 beyond n."""
    n = np.array(n_values)[:, None]
    v = np.arange(n.max() + 1)
    return np.sqrt(np.maximum((n - v) * (v + 1), 0))


def operator_diagonal(mask, amp, choice: DiagonalChoice) -> np.ndarray:
    """A's diagonal on |0>..|n> for each rep of a sweep, from its
    ``sweep_ladder`` arrays; a_dag a and a a_dag are |amp|^2 =
    re^2 + im^2, real, shifted down or up.  A slot beyond a rep holds 0,
    or nu for num."""
    if choice is DiagonalChoice.NUM:
        return np.broadcast_to(np.arange(mask.shape[1], dtype=complex),
                               mask.shape)
    if choice in (DiagonalChoice.ADAG_B, DiagonalChoice.BDAG_A):
        adag_b, bdag_a, _, _ = quadratic_diagonals(mask, amp)
        return adag_b if choice is DiagonalChoice.ADAG_B else bdag_a
    modulus = amp.real ** 2 + amp.imag ** 2
    if choice is DiagonalChoice.A_ADAG:
        return modulus.astype(complex)
    diagonal = np.zeros_like(amp)
    diagonal[:, 1:] = modulus[:, :-1]
    return diagonal


def _check_nodes(nodes):
    pairs = _close_pairs(nodes, NODE_SEPARATION)
    if pairs:
        i, j = pairs[0]
        # node index i corresponds to state |i+1>
        raise DegenerateNodes((i + 1, j + 1), abs(nodes[i] - nodes[j]))


# A sweep's Newton data are (R, W) arrays, one row per interpolant, and
# ``counts`` gives the number of nodes of each row, in ascending order;
# W is at least the largest count.  Row i's slots from counts[i] on are
# padding: each loop runs a step only on the rows that still take it, a
# suffix found by bisection, and nothing read from padding reaches a
# slot below counts[i].  So every row has the bits of its sweep alone.


def leja_order(nodes, counts) -> np.ndarray:
    """Indices of the distinct nodes of each row in Leja order: first the
    node of largest modulus, then each time the node with the largest sum
    of log distances to the nodes already taken, the lowest index on a
    tie."""
    rows, width = nodes.shape
    inside = np.arange(width) < counts[:, None]
    order = np.zeros((rows, width), dtype=np.intp)
    order[:, 0] = np.argmax(np.where(inside, np.abs(nodes), -np.inf), axis=1)
    score = np.where(inside, 0.0, -np.inf)
    with np.errstate(divide="ignore"):
        for step in range(1, width):
            s = np.searchsorted(counts, step, side="right")
            last = nodes[np.arange(s, rows), order[s:, step - 1]]
            # log 0 = -inf rules a node out once it is taken
            score[s:] += np.log(np.abs(last[:, None] - nodes[s:]))
            order[s:, step] = np.argmax(score[s:], axis=1)
    return order


def divided_differences(nodes, values, counts) -> np.ndarray:
    """Newton divided-difference table d_0 .. d_(m-1) of each row.

    Level k replaces d_k .. d_(m-1) at once by
    (d_i - d_(i-1)) / (x_i - x_(i-k)); numpy divides arrays and scalars
    alike, so the table has the bits of the entry-by-entry loop.
    """
    divided = np.array(values, dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for level in range(1, nodes.shape[1]):
            s = np.searchsorted(counts, level, side="right")
            divided[s:, level:] = (
                (divided[s:, level:] - divided[s:, level - 1:-1])
                / (nodes[s:, level:] - nodes[s:, :-level]))
    return divided


def newton_eval(nodes, divided, counts, points) -> np.ndarray:
    """Horner evaluation of each row's interpolant in the Newton basis at
    every point of the same row of ``points``; a complex128 array of
    ``points``' shape.

    Real and imaginary parts are carried apart, and each step forms
    ``acc * (z - x_k) + d_k`` as (ac - bd + d_k.real, ad + bc + d_k.imag),
    every operation rounded once, with no fused multiply-add: the rounding
    of Python's complex product, so every value has the bits of the same
    loop on Python complex scalars.
    """
    zr, zi = points.real, points.imag
    top = divided[np.arange(len(counts)), counts - 1]
    ar = np.repeat(top.real[:, None], points.shape[1], axis=1)
    ai = np.repeat(top.imag[:, None], points.shape[1], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nodes.shape[1] - 2, -1, -1):
            s = np.searchsorted(counts, k + 2)
            # z - x_k, as Python subtracts the parts
            wr = zr[s:] - nodes.real[s:, k, None]
            wi = zi[s:] - nodes.imag[s:, k, None]
            a, b = ar[s:], ai[s:]
            real = a * wr
            real -= b * wi
            real += divided.real[s:, k, None]
            a *= wi
            b *= wr
            a += b
            a += divided.imag[s:, k, None]
            b[...] = a
            a[...] = real
    out = np.empty(points.shape, dtype=complex)
    out.real, out.imag = ar, ai
    return out


def _newton_arrays(reps):
    """The Newton data of a list of ``Su2Rep`` as (R, W) arrays, and the
    counts."""
    counts = np.array([rep.n for rep in reps])
    nodes = np.zeros((len(reps), counts.max()), dtype=complex)
    divided = np.zeros_like(nodes)
    for i, rep in enumerate(reps):
        nodes[i, :rep.n] = rep.nodes
        divided[i, :rep.n] = rep.divided
    return nodes, divided, counts


def newton_coefficients(reps) -> np.ndarray:
    """Monomial coefficients of each rep's Newton-form interpolant, one
    row each: row i's first n_i entries are those of rep i.

    The Newton basis is expanded into powers.  The monomial form is for
    reporting; assembly and residual checks stay in the Newton basis,
    which is far better conditioned here.  Nested like Horner's rule, the
    expansion stays in float range where summing the expanded basis
    products does not (A = N from n = 171 on).
    """
    nodes, divided, counts = _newton_arrays(reps)
    coeffs = np.zeros_like(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nodes.shape[1] - 1, -1, -1):
            s = np.searchsorted(counts, k, side="right")
            x, c = nodes[s:, k, None], coeffs[s:]
            # coeffs <- coeffs * (z - x_k) + d_k
            c0 = c[:, 0].copy()
            c0r, c0i, xr, xi = c0.real, c0.imag, x[:, 0].real, x[:, 0].imag
            c[:, 1:] = c[:, :-1] - x * c[:, 1:]
            # the constant term as numpy's product of two complex scalars
            # rounds it: each part apart, with no fused multiply-add
            c.real[:, 0] = divided.real[s:, k] - (xr * c0r - xi * c0i)
            c.imag[:, 0] = divided.imag[s:, k] - (xr * c0i + xi * c0r)
    return coeffs


class Su2Rep(Record):
    __slots__ = _fields = (
        "n",
        "j",
        "choice",
        "j_plus",  # tuple <nu+1|J_+|nu>, nu = 0..n-1; J_- is its adjoint
        "j_z",  # tuple <nu|J_z|nu> = nu - n/2, nu = 0..n
        # Newton-basis data of p(z) = sum_l conj(lambda_l) z^l, nodes in
        # Leja order, kept for stable residual checks (the monomial
        # lambdas are report-friendly but ill-conditioned to evaluate
        # directly for larger n)
        "nodes",
        "divided",
        # <0>_n .. <n+1>_n of the GentileRep the solve used
        "bracket_numbers",
    )


def solve_representation(n_values, choice: DiagonalChoice) -> list:
    """Solve the raising-operator interpolation for one diagonal choice at
    each n of a sweep, in ascending order: a ``Su2Rep`` for each n, or the
    ``DegenerateNodes`` error of an n whose nodes collide.

    J_+ = p(A) a_dag, where p interpolates c_+(nu) / <nu+1|a_dag|nu> at
    the nodes A|nu+1>; the monomial coefficients of p are
    conj(lambda_l).  Row 0 of a_dag is zero, so J_+'s band is p at the
    nodes times a_dag's.  The nodes are checked in state order, then
    divided in Leja order, which keeps the table stable (Reichel, BIT 30,
    1990).
    """
    reps = [build_rep(n) for n in n_values]
    mask, amp = sweep_ladder(reps)
    diagonal = operator_diagonal(mask, amp, choice)
    results = {}
    for i, rep in enumerate(reps):
        try:
            _check_nodes(diagonal[i, 1:rep.dim].tolist())
        except DegenerateNodes as exc:
            results[i] = exc
    rows = [i for i in range(len(reps)) if i not in results]
    if rows:
        results.update(zip(rows, _solve([reps[i] for i in rows],
                                        diagonal[rows, 1:], amp[rows, :-1],
                                        choice)))
    return [results[i] for i in range(len(reps))]


def _solve(reps, nodes, amp, choice) -> list:
    """``Su2Rep`` of each of ``reps``, whose nodes (A's diagonal on
    |1>..|n>) and ladder amplitudes are the rows of ``nodes`` and ``amp``,
    padded."""
    counts = np.array([rep.n for rep in reps])
    width = counts[-1]
    nodes, amp = nodes[:, :width], amp[:, :width]
    with np.errstate(divide="ignore", invalid="ignore"):
        targets = ladder_targets(counts)[:, :width] / amp
    order = leja_order(nodes, counts)
    leja = np.take_along_axis(nodes, order, axis=1)
    divided = divided_differences(
        leja, np.take_along_axis(targets, order, axis=1), counts)
    j_plus = newton_eval(leja, divided, counts, nodes) * amp
    return [Su2Rep(n=n, j=n / 2.0, choice=choice,
                   j_plus=tuple(j_plus[i, :n].tolist()),
                   j_z=tuple((np.arange(n + 1) - n / 2.0).tolist()),
                   nodes=tuple(leja[i, :n].tolist()),
                   divided=tuple(divided[i, :n].tolist()),
                   bracket_numbers=rep.bracket_numbers)
            for i, (n, rep) in enumerate(zip(counts.tolist(), reps))]


def verify_representation(reps) -> list:
    """Residuals of the su(2) relations, the Casimir identity and, for
    A = a_dag b, the printed equations (``e010``) of each rep of a sweep;
    one ``(residuals, ok)`` each, ok True iff all <= TOL.

    Each relation is zero off the bands it is taken on, all O(n): J_+J_-
    and J_-J_+ are |J_+|^2 = re^2 + im^2, real, shifted down and up, and
    [J_z, J_+-] lie on the bands of J_+-.
    """
    n = np.array([rep.n for rep in reps])[:, None]
    width = n.max()
    jp = np.zeros((len(reps), width), dtype=complex)
    for row, rep in zip(jp, reps):
        row[:rep.n] = rep.j_plus
    z = np.arange(width + 1) - n / 2.0
    j = n / 2.0
    band = np.arange(width) < n
    diagonal = np.arange(width + 1) <= n
    jm = jp.conj()
    norm = jp.real ** 2 + jp.imag ** 2
    pm = np.zeros((len(reps), width + 1))
    mp = np.zeros_like(pm)
    pm[:, 1:], mp[:, :-1] = norm, norm
    columns = {
        "comm87": max_abs_diff(pm - mp, 2.0 * z, diagonal),
        "comm88p": max_abs_diff(z[:, 1:] * jp - jp * z[:, :-1], jp, band),
        "comm88m": max_abs_diff(z[:, :-1] * jm - jm * z[:, 1:], -jm, band),
        "casimir": max_abs_diff(z * z + (pm + mp) / 2.0, j * (j + 1.0),
                                diagonal),
    }
    if reps[0].choice is DiagonalChoice.ADAG_B:
        columns["e010"] = e010_residuals(reps)
    results = []
    for values in zip(*columns.values()):
        residuals = dict(zip(columns, values))
        results.append((residuals, all(r <= TOL for r in values)))
    return results


def e010_residuals(reps) -> list:
    """Worst deviation of the printed double-sum equations from 2 nu - n,
    for each rep of a sweep.

    Only printed for the A = a_dag b choice.  The double sum over
    (l, q) factors exactly into |<nu>| |p(<nu>)|^2 - |<nu+1>| |p(<nu+1>)|^2
    with p(z) = sum_l conj(lambda_l) z^l, so it is evaluated through the
    stable Newton form of p rather than raw monomial powers.
    """
    nodes, divided, counts = _newton_arrays(reps)
    brackets = np.zeros((len(reps), counts[-1] + 2), dtype=complex)
    for row, rep in zip(brackets, reps):
        row[:rep.n + 2] = rep.bracket_numbers
    # p at <nu> for nu = 0..n+1, each bracket evaluated once
    values = newton_eval(nodes, divided, counts, brackets).tolist()
    residuals = []
    for rep, row in zip(reps, values):
        n = rep.n
        terms = [abs(br) * abs(p) ** 2
                 for br, p in zip(rep.bracket_numbers, row)]
        worst = 0.0
        for v in range(n + 1):
            worst = max(worst, abs(terms[v] - terms[v + 1] - (2 * v - n)))
        residuals.append(worst)
    return residuals
