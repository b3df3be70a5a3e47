"""Parser, free expansion, and quotient-algebra normal ordering."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gentile.audit import eval_expr
from gentile.errors import OutOfRange, ParseError
from gentile.laurent import ONE, Q, QINV, ZERO, LaurentScalar, q_integer
from gentile.linalg import max_abs_diff
from gentile.rep import build_rep
from gentile.symbolic import (Add, AntiCommutator, Commutator, Expr,
                              FreePoly, Gen, Mul, NBracket, Pow, QuotientPoly,
                              Scal, Sub, SumCyc, SumPerm, expand_free,
                              normal_order, parse, perm_sum, product,
                              quotient_check, substitute)
from gentile.symbolic.parser import MAX_DEPTH

# -- parser -------------------------------------------------------------------


def test_parse_defining_relation():
    e = parse("[b,adag]_n")
    assert isinstance(e, NBracket)


def test_parse_commutator_vs_bracket():
    assert isinstance(parse("[u,v]"), Commutator)
    assert isinstance(parse("[u,v]_n"), NBracket)


def test_parse_scalars():
    # q powers and rationals are Laurent scalars, not generators
    e = parse("q^-2 u + 1/3 v")
    poly = expand_free(e)
    terms = poly.terms
    assert terms[("u",)] == LaurentScalar.q_power(-2)
    assert terms[("v",)] == LaurentScalar.from_rational("1/3")


def test_parse_power_and_juxtaposition():
    lhs = expand_free(parse("adag^3 b"))
    rhs = expand_free(product([Gen("adag")] * 3 + [Gen("b")]))
    assert (lhs - rhs).is_zero


def test_parse_unknown_identifier():
    with pytest.raises(ParseError) as exc_info:
        parse("[b, xyz]_n")
    assert exc_info.value.offset > 0


def test_parse_error_carries_expected_set():
    with pytest.raises(ParseError) as exc_info:
        parse("[b,")
    assert exc_info.value.expected


def test_parse_zero_denominator():
    with pytest.raises(ParseError) as exc_info:
        parse("u + 3/0 v")
    assert exc_info.value.offset == 6


def test_parse_depth_limit():
    # MAX_DEPTH levels parse; the first token past them is the error offset
    assert isinstance(parse("u " * MAX_DEPTH), Mul)
    parse("(" * (MAX_DEPTH - 1) + "u" + ")" * (MAX_DEPTH - 1))
    for text, offset in [("u " * (MAX_DEPTH + 1), 2 * MAX_DEPTH),
                         ("u+" * MAX_DEPTH + "u", 2 * MAX_DEPTH - 1),
                         ("(" * MAX_DEPTH + "u" + ")" * MAX_DEPTH,
                          MAX_DEPTH - 1)]:
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert exc_info.value.offset == offset


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("1" * 5000)
def test_parse_any_text_gives_expr_or_parse_error(text):
    try:
        assert isinstance(parse(text), Expr)
    except ParseError:
        pass


def test_parse_alphabet_restriction():
    parse("u v", alphabet={"u", "v"})
    with pytest.raises(ParseError):
        parse("u w", alphabet={"u", "v"})


# -- the shared sparse-term contract -----------------------------------------

# class -> two keys, two nonzero coefficients and the zero coefficient
_SPARSE = {
    LaurentScalar: ((0, -2), Fraction(3, 2), Fraction(-1), Fraction(0)),
    FreePoly: ((("u",), ("v", "u")), Q, ONE + QINV, ZERO),
    QuotientPoly: (((1, 0, 0), (0, 1, 2)), QINV, Q + Q, ZERO),
}


def _sparse_pair(cls):
    (k1, k2), c1, c2, zero = _SPARSE[cls]
    return cls({k1: c1, k2: zero}), cls({k2: c1, k1: c2})


@pytest.mark.parametrize("cls", list(_SPARSE), ids=lambda c: c.__name__)
def test_sparse_terms_contract(cls):
    (k1, _), c1, _, _ = _SPARSE[cls]
    a, b = _sparse_pair(cls)
    assert a.terms == {k1: c1}
    assert a and (a - a).is_zero and not (a - a)
    assert -(-a) == a and (a + b) - b == a
    assert hash(cls({k1: c1})) == hash(a)
    for other in _SPARSE:
        if other is not cls:
            x, _ = _sparse_pair(other)
            with pytest.raises(TypeError):
                a + x
            assert (a == x) is False


# -- free expansion -----------------------------------------------------------


def test_expand_bracket_definition():
    # [u,v]_n = uv - q vu in the free algebra
    poly = expand_free(parse("[u,v]_n"))
    assert poly.terms == {("u", "v"): ONE, ("v", "u"): -Q}


def test_expand_commutator_anticommutator():
    comm = expand_free(parse("[u,v]"))
    assert comm.terms == {("u", "v"): ONE, ("v", "u"): -ONE}
    anti = expand_free(parse("{u,v}"))
    assert anti.terms == {("u", "v"): ONE, ("v", "u"): ONE}


def test_expand_sumperm():
    # sumperm(u, v) = uv + vu for two operands
    poly = expand_free(parse("sumperm(u, v)"))
    assert poly.terms == {("u", "v"): ONE, ("v", "u"): ONE}


def test_expand_sumcyc():
    # three operands: cyclic orderings only (3 terms, not 6)
    poly = expand_free(parse("sumcyc(u, v, w)"))
    assert set(poly.terms) == {("u", "v", "w"), ("v", "w", "u"),
                               ("w", "u", "v")}


def test_perm_sum_substitution_helper():
    body = parse("[u1, u2]_n")
    full = expand_free(perm_sum(body, ["u1", "u2"]))
    # [u1,u2]_n + [u2,u1]_n = (1-q)(u1 u2 + u2 u1)
    expected = expand_free(parse("[u1,u2]_n + [u2,u1]_n"))
    assert (full - expected).is_zero


def test_substitute_keeps_node_types():
    # a renamed bracket stays a bracket: catalog trees keep their shape
    text = "[u, v^2]_n - q^-1 sumcyc(u, {v, w}, [u, w]) + 2/3 sumperm(u, v)"
    swapped = "[w, v^2]_n - q^-1 sumcyc(w, {v, u}, [w, u]) + 2/3 sumperm(w, v)"
    out = substitute(parse(text), {"u": "w", "w": "u"})
    assert out == parse(swapped)
    assert isinstance(out.left.left, NBracket)


def test_specialize_unit():
    # [u,v]_n at q=1 is the plain commutator: [u,u] = 0
    poly = expand_free(parse("[u,v]_n - [u,v]"))
    assert poly.specialize_unit(1) == {}
    assert poly.specialize_unit(-1) != {}


# -- quotient normal ordering -------------------------------------------------


def test_defining_relation_normal_form():
    poly = normal_order(parse("[b,adag]_n"))
    assert poly.terms == {(0, 0, 0): ONE}


def test_rewrite_b_adag():
    # b adag -> q adag b + 1
    poly = normal_order(parse("b adag"))
    assert poly.terms == {(1, 1, 0): Q, (0, 0, 0): ONE}


def test_rewrite_bk_adag_oracle():
    # b^k adag = q^k adag b^k + <k> b^(k-1), frozen for k = 2
    poly = normal_order(parse("b^2 adag"))
    assert poly.terms == {(1, 2, 0): Q * Q, (0, 1, 0): q_integer(2)}


def test_rewrite_number_moves():
    assert normal_order(parse("N adag - adag N - adag")).is_zero
    assert normal_order(parse("N b - b N + b")).is_zero


def test_quotient_check():
    ok, residual = quotient_check(parse("[b,adag]_n"), parse("1"))
    assert ok and residual.is_zero
    ok, residual = quotient_check(parse("[b,adag]_n"), parse("2"))
    assert not ok and residual.terms == {(0, 0, 0): -ONE}


def test_normal_order_rejects_free_symbols():
    with pytest.raises(OutOfRange):
        normal_order(parse("u v"))


def test_quotientpoly_repr():
    assert repr(QuotientPoly()) == "0"
    assert "adag*b" in repr(normal_order(parse("adag b")))


def test_normal_form_bytes_frozen():
    # the printed normal form is canonical, so these bytes are fixed
    # whatever algorithm computes the product
    assert repr(normal_order(parse("b^3 adag^3"))) == (
        "(1 + 2*q + 2*q^2 + q^3)*1"
        " + (q + 3*q^2 + 5*q^3 + 5*q^4 + 3*q^5 + q^6)*adag*b"
        " + (q^4 + 2*q^5 + 3*q^6 + 2*q^7 + q^8)*adag*adag*b*b"
        " + (q^9)*adag*adag*adag*b*b*b")
    assert repr(normal_order(parse("(N^2 b^2) (adag^3 N)"))) == (
        "(1 + 2*q + 2*q^2 + q^3)*adag*N"
        " + (2 + 4*q + 4*q^2 + 2*q^3)*adag*N*N"
        " + (1 + 2*q + 2*q^2 + q^3)*adag*N*N*N"
        " + (q^2 + 2*q^3 + 2*q^4 + q^5)*adag*adag*b*N"
        " + (2*q^2 + 4*q^3 + 4*q^4 + 2*q^5)*adag*adag*b*N*N"
        " + (q^2 + 2*q^3 + 2*q^4 + q^5)*adag*adag*b*N*N*N"
        " + (q^6)*adag*adag*adag*b*b*N"
        " + (2*q^6)*adag*adag*adag*b*b*N*N"
        " + (q^6)*adag*adag*adag*b*b*N*N*N")


# -- closed-form product against the one-letter rewriting rules ---------------
#
# The reference multiplies by one letter at a time:
#     N^m adag = adag (N+1)^m,   b^k adag = q^k adag b^k + [k]_q b^(k-1),
#     N^m b = b (N-1)^m.


def _ref_mul_adag(p):
    pairs = []
    for (j, k, m), c in p.terms.items():
        for i in range(m + 1):
            binom = LaurentScalar.from_rational(math.comb(m, i))
            pairs.append(((j + 1, k, i), (Q ** k) * c * binom))
            if k >= 1:
                pairs.append(((j, k - 1, i), q_integer(k) * c * binom))
    return QuotientPoly.collect(pairs)


def _ref_mul_b(p):
    pairs = []
    for (j, k, m), c in p.terms.items():
        for i in range(m + 1):
            binom = LaurentScalar.from_rational((-1) ** (m - i)
                                                * math.comb(m, i))
            pairs.append(((j, k + 1, i), c * binom))
    return QuotientPoly.collect(pairs)


def _ref_mul_num(p):
    return QuotientPoly({(j, k, m + 1): c for (j, k, m), c in p.terms.items()})


def _ref_product(x, y):
    total = QuotientPoly()
    for (j, k, m), c in y.terms.items():
        part = x.scale(c)
        for step, count in ((_ref_mul_adag, j), (_ref_mul_b, k),
                            (_ref_mul_num, m)):
            for _ in range(count):
                part = step(part)
        total = total + part
    return total


def test_closed_form_b3_adag2_frozen():
    # b^3 adag^2 = q^6 adag^2 b^3 + q^2 [3 1][2 1] adag b^2 + [3 2][2]! b,
    # [3 1][2 1] = [3 2][2]! = (1 + q + q^2)(1 + q) = 1 + 2q + 2q^2 + q^3
    b3, adag2 = QuotientPoly({(0, 3, 0): ONE}), QuotientPoly({(2, 0, 0): ONE})
    q32 = LaurentScalar({0: 1, 1: 2, 2: 2, 3: 1})
    expected = {(2, 3, 0): LaurentScalar.q_power(6),
                (1, 2, 0): LaurentScalar.q_power(2) * q32,
                (0, 1, 0): q32}
    assert (b3 * adag2).terms == expected
    assert _ref_product(b3, adag2).terms == expected


_COEFFS = st.dictionaries(
    st.integers(-2, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    max_size=2).map(LaurentScalar)
_QPOLYS = st.dictionaries(st.tuples(*[st.integers(0, 5)] * 3), _COEFFS,
                          max_size=3).map(QuotientPoly)


@settings(max_examples=100, deadline=None)
@given(_QPOLYS, _QPOLYS)
def test_closed_form_product_matches_rewriting(x, y):
    assert x * y == _ref_product(x, y)


# -- rewriter / representation compatibility ----------------------------------

_words = st.lists(st.sampled_from(["adag", "b", "N"]), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(_words, st.integers(min_value=1, max_value=6))
def test_normal_order_matches_representation(word, n):
    """Normal ordering is the identity map modulo the defining relations."""
    expr = product([Gen(name) for name in word])
    rep = build_rep(n)
    assignment = {"adag": rep.a_dag, "b": rep.b, "N": rep.num}
    direct = eval_expr(expr, assignment, rep.q, rep.dim)
    ordered = normal_order(expr).eval_rep(rep)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert max_abs_diff(direct, ordered) <= 1e-10 * scale


# -- banded eval_rep against dense matrix powers ------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 32])
def test_eval_rep_matches_dense_powers(n):
    rep = build_rep(n)
    coef = LaurentScalar({-1: Fraction(1, 3), 2: Fraction(2)})
    eps = np.finfo(float).eps
    for j in sorted({0, 1, 2, 3, 6, n, n + 1}):
        for k in sorted({0, 1, 2, 3, 6, n, n + 1}):
            for m in range(5):
                got = QuotientPoly({(j, k, m): coef}).eval_rep(rep)
                dense = (np.linalg.matrix_power(rep.a_dag, j)
                         @ np.linalg.matrix_power(rep.b, k)
                         @ np.linalg.matrix_power(rep.num, m))
                want = coef.eval_at(rep.q) * dense
                if j > n or k > n:
                    assert not got.any() and not dense.any()
                # one product per entry, so the error is relative entrywise
                # and every entry off the band is exactly zero
                bound = 8 * (j + k + m + 4) * eps * np.abs(want)
                assert np.all(np.abs(got - want) <= bound), (j, k, m)


# -- fold: normal form against direct evaluation, every node kind -------------

_NODES = (Add, Sub, Mul, NBracket, Commutator, AntiCommutator, Pow, SumPerm,
          SumCyc)
_GENERATORS = st.sampled_from(["adag", "b", "N"]).map(Gen)
_SCALARS = st.builds(
    lambda num, den, k: Scal(LaurentScalar({k: Fraction(num, den)})),
    st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2))


@st.composite
def _trees(draw, depth, degree):
    """A tree of at most ``depth`` levels and word length ``degree``."""
    inner = _NODES if depth and degree >= 2 else ()
    cls = draw(st.sampled_from((None,) + inner))
    if cls is None:
        return draw(_GENERATORS | _SCALARS if degree else _SCALARS)
    if cls is Pow:
        k = draw(st.integers(0, 3))
        return Pow(draw(_trees(depth - 1, degree // max(k, 1))), k)
    if cls in (SumPerm, SumCyc):
        m = draw(st.integers(1, 3))
        return cls(tuple(draw(_trees(depth - 1, degree // m))
                         for _ in range(m)))
    left = degree if cls in (Add, Sub) else degree // 2
    right = degree if cls in (Add, Sub) else degree - left
    return cls(draw(_trees(depth - 1, left)), draw(_trees(depth - 1, right)))


def _norm_bound(e, norms) -> float:
    """Upper bound on the operator norm of every subexpression value."""
    if isinstance(e, Gen):
        return norms[e.name]
    if isinstance(e, Scal):
        return float(sum(abs(c) for c in e.value.coeffs.values()))
    if isinstance(e, (Add, Sub)):
        return _norm_bound(e.left, norms) + _norm_bound(e.right, norms)
    if isinstance(e, Pow):
        return _norm_bound(e.base, norms) ** e.exponent
    if isinstance(e, (SumPerm, SumCyc)):
        m = len(e.operands)
        orders = math.factorial(m) if isinstance(e, SumPerm) else m
        return orders * math.prod(_norm_bound(x, norms) for x in e.operands)
    product_bound = _norm_bound(e.left, norms) * _norm_bound(e.right, norms)
    return product_bound if isinstance(e, Mul) else 2.0 * product_bound


@settings(max_examples=80, deadline=None)
@given(_trees(3, 6))
def test_normal_order_matches_eval_expr_every_node(expr):
    """Quotient normal form and direct matrix evaluation agree at finite n.

    Both round off in proportion to their operand sizes, so the tolerance
    scales with the tree's norm bound plus the normal form's term sizes.
    """
    poly = normal_order(expr)
    for n in (1, 2, 3, 5):
        rep = build_rep(n)
        assignment = {"adag": rep.a_dag, "b": rep.b, "N": rep.num}
        norms = {name: float(np.linalg.norm(mat, 2))
                 for name, mat in assignment.items()}
        direct = eval_expr(expr, assignment, rep.q, rep.dim)
        ordered = poly.eval_rep(rep)
        nf_size = sum(
            float(sum(abs(c) for c in coeff.coeffs.values()))
            * norms["adag"] ** j * norms["b"] ** k * norms["N"] ** m
            for (j, k, m), coeff in poly.terms.items())
        size = 1.0 + _norm_bound(expr, norms) + nf_size
        assert max_abs_diff(direct, ordered) <= 64 * (n + 1) * 2.2e-16 * size
