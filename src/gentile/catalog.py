"""Catalog of every bracket identity under audit.

Every entry carries its two sides as expression trees and the q
specialization; the verification strategy follows from the
specialization.  Finite-n entries over adag, b and N are QUOTIENT: both
the quotient normal form and the Gentile matrices check them.  Every
other entry is FREE.  Schematic identities indexed by k, l, i are
instantiated up to total degree 4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import permutations

from ._record import Record
from .laurent import ONE, Q, QINV
from .symbolic import (Add, AntiCommutator, Commutator, Gen, Mul, NBracket,
                       Pow, perm_sum, cyc_sum, product)
from .symbolic.expr import _coerce as _scal

FREE = "FREE"
QUOTIENT = "QUOTIENT"

FORMAL_Q = "FORMAL_Q"
Q_AT_N = "Q_AT_N"
Q_EQ_1 = "Q_EQ_1"
Q_EQ_MINUS_1 = "Q_EQ_MINUS_1"


class IdentityEntry(Record):
    __slots__ = _fields = ("id", "lhs", "rhs", "specialization")

    @property
    def strategy(self) -> str:
        """QUOTIENT for relations at q = exp(2 pi i/(n+1)), else FREE."""
        return QUOTIENT if self.specialization == Q_AT_N else FREE


_ONE_MINUS_Q = ONE - Q
_U = [Gen(f"u{i}") for i in range(1, 10)]


def _us(k):
    return _U[:k]


def _vs(l):
    # distinct alphabet slice for the second operand list
    return _U[4:4 + l]


def _product_rule(us, vs, deformed: bool):
    """General product expansion for the bracket of two operator strings."""
    k, l = len(us), len(vs)
    terms = []
    for i in range(k):
        for j in range(l):
            core = Commutator(us[i], vs[j])
            factors = us[:i] + vs[:j] + [core] + vs[j + 1:] + us[i + 1:]
            terms.append(product(factors))
    total = reduce(Add, terms)
    if deformed:
        total = total + Mul(_scal(_ONE_MINUS_Q), product(vs + us))
    return total


def _signed_sum(terms, signs):
    """terms[0] +- terms[1] +- ..., folded from the left; a positive
    signs[i] adds terms[i] and any other subtracts it."""
    total = terms[0]
    for sign, term in zip(signs[1:], terms[1:]):
        total = total + term if sign > 0 else total - term
    return total


def _eps_sum(bracket_cls, signed: bool):
    """Sum over i,j,k in 1..3 of eps (or |eps|) times [[ui,uj], uk]."""
    terms = []
    for perm in permutations(range(3)):
        sign = 1
        if signed:
            # parity of the permutation (i j k) of (1 2 3)
            inversions = sum(1 for a in range(3) for b in range(a + 1, 3)
                             if perm[a] > perm[b])
            sign = -1 if inversions % 2 else 1
        i, j, k = (_U[p] for p in perm)
        terms.append(Mul(_scal(sign), bracket_cls(bracket_cls(i, j), k)))
    return reduce(Add, terms)


def build_catalog() -> list:
    entries = []

    def add(id_, lhs, rhs, spec=FORMAL_Q):
        entries.append(IdentityEntry(id=id_, lhs=lhs, rhs=rhs,
                                     specialization=spec))

    u, v, w, o = Gen("u"), Gen("v"), Gen("w"), Gen("o")
    lam = _scal(Fraction(2, 3))

    # ---- Section II: basic bracket identities, formal q ----
    add("sec2_self_square",
        NBracket(u, u), Mul(_scal(_ONE_MINUS_Q), Pow(u, 2)))
    add("sec2_scalar_right",
        NBracket(u, lam), Mul(_scal(_ONE_MINUS_Q), Mul(lam, u)))
    add("sec2_scalar_left",
        NBracket(lam, u), Mul(_scal(_ONE_MINUS_Q), Mul(lam, u)))
    add("sec2_linear_left_plus",
        NBracket(u + v, w), NBracket(u, w) + NBracket(v, w))
    add("sec2_linear_left_minus",
        NBracket(u - v, w), NBracket(u, w) - NBracket(v, w))
    add("sec2_linear_right_plus",
        NBracket(w, u + v), NBracket(w, u) + NBracket(w, v))
    add("sec2_linear_right_minus",
        NBracket(w, u - v), NBracket(w, u) - NBracket(w, v))
    add("sec2_scalar_pull_right",
        NBracket(u, Mul(lam, v)), Mul(lam, NBracket(u, v)))
    add("sec2_scalar_pull_left",
        NBracket(Mul(lam, u), v), Mul(lam, NBracket(u, v)))
    add("sec2_swap",
        NBracket(u, v),
        Mul(_scal(-(QINV)), NBracket(v, u)) - Mul(_scal(Q - QINV), Mul(v, u)))
    add("sec2_comm_difference",
        NBracket(u, v) - NBracket(v, u),
        Mul(_scal(ONE + Q), Commutator(u, v)))
    add("sec2_anticomm_sum",
        NBracket(u, v) + NBracket(v, u),
        Mul(_scal(_ONE_MINUS_Q), AntiCommutator(u, v)))

    # product rule, Eq. (5), instances up to total degree 4
    for k, l in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
        us, vs = _us(k), _vs(l)
        add(f"sec2_eq5_k{k}l{l}",
            NBracket(product(us), product(vs)),
            _product_rule(us, vs, deformed=True))

    # two-fold bracket sums, Eqs. (6a)/(6b): the cyclic orders of (u, v,
    # w), then the anticyclic ones
    orders = [(u, v, w), (w, u, v), (v, w, u), (v, u, w), (w, v, u),
              (u, w, v)]
    two_fold = [NBracket(NBracket(x, y), z) for x, y, z in orders]
    words6 = [product(order) for order in orders]
    for id_, scalar, signs in (
            ("sec2_eq6a", _ONE_MINUS_Q * _ONE_MINUS_Q, [1, 1, 1, 1, 1, 1]),
            ("sec2_eq6b", ONE - Q * Q, [1, 1, 1, -1, -1, -1])):
        add(id_, _signed_sum(two_fold, signs),
            Mul(_scal(scalar), _signed_sum(words6, signs)))

    # k-fold nested bracket under a full permutation sum
    for k in (2, 3, 4):
        syms = [f"u{i}" for i in range(1, k + 1)]
        lhs = perm_sum(reduce(NBracket, _us(k)), syms)
        rhs = Mul(_scal(_ONE_MINUS_Q ** (k - 1)),
                  perm_sum(product(_us(k)), syms))
        add(f"sec2_nested_k{k}", lhs, rhs)

    # Eqs. (57)/(58): split-product bracket under permutation / cyclic sums
    for k, i in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        syms = [f"u{j}" for j in range(1, k + 1)]
        body = NBracket(product(_us(k)[:i]), product(_us(k)[i:]))
        add(f"sec2_eq57_k{k}i{i}",
            perm_sum(body, syms),
            Mul(_scal(_ONE_MINUS_Q), perm_sum(product(_us(k)), syms)))
        add(f"sec2_eq58_k{k}i{i}",
            cyc_sum(body, syms),
            Mul(_scal(_ONE_MINUS_Q), cyc_sum(product(_us(k)), syms)))

    # comma placement is immaterial under the sums
    for k in (3, 4):
        syms = [f"u{j}" for j in range(1, k + 1)]
        for i in range(2, k):
            first = NBracket(_us(k)[0], product(_us(k)[1:]))
            other = NBracket(product(_us(k)[:i]), product(_us(k)[i:]))
            add(f"sec2_comma_perm_k{k}i{i}",
                perm_sum(other, syms), perm_sum(first, syms))
            add(f"sec2_comma_cyc_k{k}i{i}",
                cyc_sum(other, syms), cyc_sum(first, syms))

    # ---- Appendix A: product expansions and special cases ----
    for k in (2, 3, 4):
        us = _us(k)
        add(f"appA_eq21_k{k}",
            NBracket(product(us), v), _product_rule(us, [v], deformed=True))
        add(f"appA_eq22_k{k}",
            NBracket(v, product(us)),
            _product_rule([v], us, deformed=True))

    for k, l in ((2, 2), (3, 2), (2, 3), (3, 3)):
        add(f"appA_eq41_k{k}l{l}",
            NBracket(Pow(u, k), Pow(v, l)),
            _power_rule(u, v, k, l))

    # nested-power identity, cleared of its (1-q)^(k+m-2) denominator
    for k, m in ((2, 2), (3, 2), (2, 3)):
        lhs = Mul(_scal(_ONE_MINUS_Q ** (k + m - 2)),
                  NBracket(Pow(u, k), Pow(v, m)))
        # [...[u, u]_n ..., u]_n with k - 1 brackets is (1-q)^(k-1) u^k
        rhs = NBracket(reduce(NBracket, [u] * k),
                       reduce(NBracket, [v] * m))
        add(f"appA_nested_power_k{k}m{m}", lhs, rhs)

    # step-down recursions
    for k in (2, 3, 4):
        add(f"appA_stepdown1_k{k}",
            NBracket(Pow(u, k), v) + NBracket(Mul(Pow(u, k - 1), v), u),
            Mul(NBracket(Pow(u, k - 1), u), v)
            + Mul(NBracket(Pow(u, k - 1), v), u))
        add(f"appA_stepdown2_k{k}",
            NBracket(v, Pow(u, k)) + NBracket(u, Mul(v, Pow(u, k - 1))),
            Mul(v, NBracket(u, Pow(u, k - 1)))
            + Mul(u, NBracket(v, Pow(u, k - 1))))

    add("appA_uv_w",
        NBracket(Mul(u, v), w),
        Mul(u, Commutator(v, w)) + Mul(Commutator(u, w), v)
        + Mul(_scal(_ONE_MINUS_Q), product([w, u, v])))
    add("appA_w_uv",
        NBracket(w, Mul(u, v)),
        Mul(Commutator(w, u), v) + Mul(u, Commutator(w, v))
        + Mul(_scal(_ONE_MINUS_Q), product([u, v, w])))
    add("appA_uvw_o",
        NBracket(product([u, v, w]), o),
        Mul(Commutator(u, o), Mul(v, w)) + product([u, Commutator(v, o), w])
        + Mul(Mul(u, v), Commutator(w, o))
        + Mul(_scal(_ONE_MINUS_Q), product([o, u, v, w])))
    add("appA_o_uvw",
        NBracket(o, product([u, v, w])),
        Mul(Commutator(o, u), Mul(v, w)) + product([u, Commutator(o, v), w])
        + Mul(Mul(u, v), Commutator(o, w))
        + Mul(_scal(_ONE_MINUS_Q), product([u, v, w, o])))

    # [uv, wo] through double brackets.  By bilinearity the four-term sum
    # collapses to [(1-q^2)uv, (1-q^2)wo]_n, so the denominator must be
    # (1-q^2)^2; the singly-cleared printed form is kept as a documented
    # failure alongside the exact squared form.
    double_bracket_sum = (
        NBracket(NBracket(u, v), NBracket(w, o))
        + Mul(_scal(Q), NBracket(NBracket(v, u), NBracket(w, o)))
        + Mul(_scal(Q), NBracket(NBracket(u, v), NBracket(o, w)))
        + Mul(_scal(Q * Q), NBracket(NBracket(v, u), NBracket(o, w))))
    add("appA_uvwo_brackets",
        Mul(_scal((ONE - Q * Q) ** 2), NBracket(Mul(u, v), Mul(w, o))),
        double_bracket_sum)
    add("appA_uvwo_brackets_printed",
        Mul(_scal(ONE - Q * Q), NBracket(Mul(u, v), Mul(w, o))),
        double_bracket_sum)
    add("appA_uvwo_mixed",
        NBracket(Mul(u, v), Mul(w, o)),
        product([u, NBracket(v, w), o])
        + Mul(_scal(Q), product([u, w, Commutator(v, o)]))
        + Mul(_scal(Q), product([Commutator(u, w), o, v]))
        + Mul(_scal(Q), product([w, Commutator(u, o), v])))

    # ---- Appendix A limit cases: q = 1 (commutator), q = -1 (anticommutator)
    for k, l in ((2, 1), (2, 2), (3, 1)):
        us, vs = _us(k), _vs(l)
        add(f"lim_comm_product_k{k}l{l}",
            NBracket(product(us), product(vs)),
            _product_rule(us, vs, deformed=False), spec=Q_EQ_1)
        anti_rhs = _product_rule(us, vs, deformed=False) \
            + Mul(_scal(2), product(vs + us))
        add(f"lim_anti_product_k{k}l{l}",
            NBracket(product(us), product(vs)), anti_rhs, spec=Q_EQ_MINUS_1)

    add("lim_eq80", _eps_sum(NBracket, signed=False), _scal(0), spec=Q_EQ_1)
    add("lim_eq81_jacobi", _eps_sum(NBracket, signed=True), _scal(0),
        spec=Q_EQ_1)
    # anticommutator analogues of Eqs. (80)/(81)
    add("lim_anti_eps_abs",
        _eps_sum(NBracket, signed=False),
        Mul(_scal(4), perm_sum(product(_us(3)), ["u1", "u2", "u3"])),
        spec=Q_EQ_MINUS_1)
    add("lim_anti_eps_signed",
        _eps_sum(NBracket, signed=True), _scal(0), spec=Q_EQ_MINUS_1)

    for k in (3, 4):
        syms = [f"u{i}" for i in range(1, k + 1)]
        nested = perm_sum(reduce(NBracket, _us(k)), syms)
        add(f"lim_comm_nested_k{k}", nested, _scal(0), spec=Q_EQ_1)
        add(f"lim_anti_nested_k{k}", nested,
            Mul(_scal(2 ** (k - 1)), perm_sum(product(_us(k)), syms)),
            spec=Q_EQ_MINUS_1)

    for k, i in ((3, 1), (3, 2), (4, 2)):
        syms = [f"u{j}" for j in range(1, k + 1)]
        body = NBracket(product(_us(k)[:i]), product(_us(k)[i:]))
        add(f"lim_comm_perm_k{k}i{i}", perm_sum(body, syms), _scal(0),
            spec=Q_EQ_1)
        add(f"lim_comm_cyc_k{k}i{i}", cyc_sum(body, syms), _scal(0),
            spec=Q_EQ_1)
        add(f"lim_anti_perm_k{k}i{i}", perm_sum(body, syms),
            Mul(_scal(2), perm_sum(product(_us(k)), syms)),
            spec=Q_EQ_MINUS_1)
        add(f"lim_anti_cyc_k{k}i{i}", cyc_sum(body, syms),
            Mul(_scal(2), cyc_sum(product(_us(k)), syms)),
            spec=Q_EQ_MINUS_1)

    # ---- Appendix B: relations in the adag/b/N quotient algebra ----
    adag, b, N = Gen("adag"), Gen("b"), Gen("N")
    add("appB_defining", NBracket(b, adag), _scal(1), spec=Q_AT_N)
    add("appB_N_adag_comm", Commutator(N, adag), adag, spec=Q_AT_N)
    add("appB_N_b_comm", Commutator(N, b), Mul(_scal(-1), b), spec=Q_AT_N)
    add("appB_N_adag_nbr",
        NBracket(N, adag),
        Mul(Mul(_scal(_ONE_MINUS_Q), N) + _scal(Q), adag), spec=Q_AT_N)
    add("appB_adag_N_nbr",
        NBracket(adag, N),
        Mul(Mul(_scal(_ONE_MINUS_Q), N) - _scal(1), adag), spec=Q_AT_N)
    add("appB_N_b_nbr",
        NBracket(N, b),
        Mul(Mul(_scal(_ONE_MINUS_Q), N) - _scal(Q), b), spec=Q_AT_N)
    add("appB_b_N_nbr",
        NBracket(b, N),
        Mul(Mul(_scal(_ONE_MINUS_Q), N) + _scal(1), b), spec=Q_AT_N)
    for k in (1, 2, 3):
        add(f"appB_adagkb_adag_k{k}",
            NBracket(Mul(Pow(adag, k), b), adag), Pow(adag, k), spec=Q_AT_N)
        add(f"appB_badagk_adag_k{k}",
            NBracket(Mul(b, Pow(adag, k)), adag), Pow(adag, k), spec=Q_AT_N)
        add(f"appB_b_adagbk_k{k}",
            NBracket(b, Mul(adag, Pow(b, k))), Pow(b, k), spec=Q_AT_N)
        add(f"appB_b_bkadag_k{k}",
            NBracket(b, Mul(Pow(b, k), adag)), Pow(b, k), spec=Q_AT_N)
    # printed as equal to (1+q) adag b; the rewriter finds an extra term
    add("appB_adagb2_adag",
        NBracket(Mul(adag, Pow(b, 2)), adag),
        Mul(_scal(ONE + Q), Mul(adag, b)), spec=Q_AT_N)
    add("appB_b_adag2b",
        NBracket(b, Mul(Pow(adag, 2), b)),
        Mul(_scal(ONE + Q), Mul(adag, b)), spec=Q_AT_N)

    # [Nb, adag b] with the phase exp(i 2 pi (N-1)/(n+1)) = q^(N-1), both
    # operand orders.  adag b = [N]_q gives q^N = 1 + (q-1) adag b, so
    # q^(N-1) = q^-1 + (1-q^-1) adag b; the linear form avoids the
    # cancellation of the equal q^-1 [b, adag].
    nb, adagb = Mul(N, b), Mul(adag, b)
    phase = _scal(QINV) + Mul(_scal(ONE - QINV), adagb)
    add("appB_Nb_adagb_phase_left", Commutator(nb, adagb), Mul(phase, nb),
        spec=Q_AT_N)
    add("appB_Nb_adagb_phase_right", Commutator(nb, adagb), Mul(nb, phase),
        spec=Q_AT_N)

    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids)), "duplicate identity ids"
    return entries


def _power_rule(u, v, k, l):
    """Eq.-(41)-style expansion of the bracket of two pure powers."""
    terms = []
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            factors = []
            if i > 1:
                factors.append(Pow(u, i - 1))
            if j > 1:
                factors.append(Pow(v, j - 1))
            factors.append(Commutator(u, v))
            if l - j > 0:
                factors.append(Pow(v, l - j))
            if k - i > 0:
                factors.append(Pow(u, k - i))
            terms.append(product(factors))
    return reduce(Add, terms) + Mul(_scal(_ONE_MINUS_Q),
                                    Mul(Pow(v, l), Pow(u, k)))
