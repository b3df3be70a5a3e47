"""Parser, free expansion, and quotient-algebra normal ordering."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (dense_eval_rep, dense_ladder, densify, eval_one,
                        laurent_scalar, max_abs_diff, norm_bound,
                        substitute)
from gentile.errors import OutOfRange, ParseError
from gentile.laurent import ONE, Q, QINV, ZERO, LaurentScalar, q_integer
from gentile.rep import build_rep
from gentile.symbolic import (Add, AntiCommutator, Commutator, Expr,
                              FreePoly, Gen, Mul, NBracket, Pow, ProductSum,
                              QuotientPoly, Scal, Sub, expand_free,
                              normal_order, parse, perm_sum, product)
from gentile.symbolic.parser import MAX_DEPTH, MAX_PERM_OPERANDS


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
    assert not (lhs - rhs)


def test_parse_folds_scalar_powers():
    # a power of a scalar is the exact scalar; other powers stay nodes
    assert parse("(q^-2)^3") == Scal(LaurentScalar.q_power(-6))
    assert parse("((q^10)^64)^64") == Scal(LaurentScalar.q_power(40960))
    assert parse("(1/2)^3 u") == Mul(
        Scal(LaurentScalar.from_rational(Fraction(1, 8))), Gen("u"))
    assert parse("q^0") == parse("7^0") == Scal(ONE)
    assert parse("(2 q)^2") == Pow(Mul(Scal(LaurentScalar.from_rational(2)),
                                       Scal(Q)), 2)
    assert parse("u^2") == Pow(Gen("u"), 2)


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


def test_parse_sumperm_operand_cap():
    # MAX_PERM_OPERANDS operands parse; one more is an error at 'sumperm'
    operands = ",".join(["u"] * MAX_PERM_OPERANDS)
    node = parse(f"v + sumperm({operands})")
    assert len(node.right.operands) == MAX_PERM_OPERANDS
    with pytest.raises(ParseError) as exc_info:
        parse(f"v + sumperm({operands},w)")
    assert exc_info.value.offset == 4
    # the cap is on permutations: a cyclic sum of as many operands parses
    node = parse(f"sumcyc({operands},w)")
    assert type(node) is ProductSum and node.cyclic


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("1" * 5000)
def test_parse_any_text_gives_expr_or_parse_error(text):
    try:
        assert isinstance(parse(text), Expr)
    except ParseError:
        pass


def test_parse_alphabet_restriction():
    with pytest.raises(ParseError, match="unknown generator 'x'"):
        parse("x")


# -- the shared sparse-term contract -----------------------------------------

# class -> two keys, two nonzero coefficients and the zero coefficient
_SPARSE = {
    LaurentScalar: ((0, -2), Fraction(3, 2), Fraction(-1), Fraction(0)),
    FreePoly: ((("u",), ("v", "u")), Q, ONE + QINV, ZERO),
    QuotientPoly: (((1, 0, 0), (0, 1, 2)), QINV, Q + Q, ZERO),
}


def _collect(cls, pairs):
    """``cls.collect``; a Laurent scalar, whose fields are numerators over
    one denominator, is summed from its rational (key, value) pairs."""
    if cls is LaurentScalar:
        return laurent_scalar(dict(pairs))
    return cls.collect(pairs)


def _sparse_pair(cls):
    (k1, k2), c1, c2, zero = _SPARSE[cls]
    return (_collect(cls, [(k1, c1), (k2, zero)]),
            _collect(cls, [(k2, c1), (k1, c2)]))


@pytest.mark.parametrize("cls", list(_SPARSE), ids=lambda c: c.__name__)
def test_sparse_terms_contract(cls):
    (k1, _), c1, _, _ = _SPARSE[cls]
    a, b = _sparse_pair(cls)
    assert a.terms == {k1: c1}
    assert a and not (a - a)
    assert (a + b) - b == a and (a - b) + b == a
    if cls is LaurentScalar:  # the one sparse type that negates
        assert -(-a) == a
    assert hash(_collect(cls, [(k1, c1)])) == hash(a)
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
    assert not (full - expected)


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
    assert not normal_order(parse("N adag - adag N - adag"))
    assert not normal_order(parse("N b - b N + b"))


def test_quotient_residual():
    residual = normal_order(parse("[b,adag]_n")) - normal_order(parse("1"))
    assert not residual
    residual = normal_order(parse("[b,adag]_n")) - normal_order(parse("2"))
    assert residual and residual.terms == {(0, 0, 0): -ONE}


def test_zero_folds_to_the_empty_sum():
    # a zero scalar is the empty map in both algebras, so it prints as 0
    for text in ("0", "0 b"):
        assert expand_free(parse(text)) == FreePoly({})
        assert normal_order(parse(text)) == QuotientPoly({})
        assert repr(normal_order(parse(text))) == "0"


def test_normal_order_rejects_free_symbols():
    with pytest.raises(OutOfRange):
        normal_order(parse("u v"))


def test_quotientpoly_repr():
    assert repr(QuotientPoly({})) == "0"
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
    total = QuotientPoly({})
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
    q32 = LaurentScalar({0: 1, 1: 2, 2: 2, 3: 1}, 1)
    expected = {(2, 3, 0): LaurentScalar.q_power(6),
                (1, 2, 0): LaurentScalar.q_power(2) * q32,
                (0, 1, 0): q32}
    assert (b3 * adag2).terms == expected
    assert _ref_product(b3, adag2).terms == expected


_COEFFS = st.dictionaries(
    st.integers(-2, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    max_size=2).map(laurent_scalar)
# a drawn coefficient may be zero, which collect drops
_QPOLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 5)] * 3), _COEFFS,
    max_size=3).map(lambda d: QuotientPoly.collect(d.items()))


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
    assignment = dict(zip(("adag", "b", "N"), dense_ladder(rep)))
    direct = eval_one(expr, assignment, rep.roots, rep.dim)
    ordered, = densify(normal_order(expr).eval_rep([rep]), [rep])
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert max_abs_diff(direct, ordered) <= 1e-10 * scale


# -- banded eval_rep against dense matrix powers ------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 32])
def test_eval_rep_matches_dense_powers(n):
    # each word over a sweep that holds n between smaller and larger reps
    reps = [build_rep(m) for m in (1, n, 4, 33)]
    rep = reps[1]
    a_dag, b, num = dense_ladder(rep)
    coef = laurent_scalar({-1: Fraction(1, 3), 2: Fraction(2)})
    eps = np.finfo(float).eps
    for j in sorted({0, 1, 2, 3, 6, n, n + 1}):
        for k in sorted({0, 1, 2, 3, 6, n, n + 1}):
            for m in range(5):
                value = QuotientPoly({(j, k, m): coef}).eval_rep(reps)
                assert set(value.bands) <= {k - j}
                got = densify(value, reps)[1]
                dense = (np.linalg.matrix_power(a_dag, j)
                         @ np.linalg.matrix_power(b, k)
                         @ np.linalg.matrix_power(num, m))
                want = coef.eval_at(rep.roots) * dense
                if j > n or k > n:
                    assert not got.any() and not dense.any()
                # one product per entry, so the error is relative entrywise
                # and every entry off the band is exactly zero
                bound = 8 * (j + k + m + 4) * eps * np.abs(want)
                assert np.all(np.abs(got - want) <= bound), (j, k, m)


def test_eval_rep_coefficient_beyond_float_range():
    poly = QuotientPoly({(0, 1, 0): LaurentScalar.from_rational(10 ** 400)})
    with pytest.raises(OutOfRange, match="beyond float range"):
        poly.eval_rep([build_rep(2)])


# -- fold: normal form against direct evaluation, every node kind -------------

# the two product sums are drawn by name and built with their cyclic flag
_NODES = (Add, Sub, Mul, NBracket, Commutator, AntiCommutator, Pow,
          "sumperm", "sumcyc")
_GENERATORS = st.sampled_from(["adag", "b", "N"]).map(Gen)
_SCALARS = st.builds(
    lambda num, den, k: Scal(laurent_scalar({k: Fraction(num, den)})),
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
    if cls in ("sumperm", "sumcyc"):
        m = draw(st.integers(1, 3))
        return ProductSum(tuple(draw(_trees(depth - 1, degree // m))
                                for _ in range(m)), cls == "sumcyc")
    left = degree if cls in (Add, Sub) else degree // 2
    right = degree if cls in (Add, Sub) else degree - left
    return cls(draw(_trees(depth - 1, left)), draw(_trees(depth - 1, right)))


@settings(max_examples=80, deadline=None)
@given(_trees(3, 6))
def test_normal_order_matches_eval_expr_every_node(expr):
    """Quotient normal form and direct matrix evaluation agree at finite n.

    Both round off in proportion to their operand sizes, so the tolerance
    scales with the tree's norm bound plus the normal form's term sizes.
    """
    poly = normal_order(expr)
    reps = [build_rep(n) for n in (1, 2, 3, 5)]
    for rep, ordered in zip(reps, densify(poly.eval_rep(reps), reps)):
        n = rep.n
        assignment = dict(zip(("adag", "b", "N"), dense_ladder(rep)))
        norms = {name: float(np.linalg.norm(mat, 2))
                 for name, mat in assignment.items()}
        direct = eval_one(expr, assignment, rep.roots, rep.dim)
        nf_size = sum(
            float(sum(abs(c) for c in coeff.terms.values()))
            * norms["adag"] ** j * norms["b"] ** k * norms["N"] ** m
            for (j, k, m), coeff in poly.terms.items())
        size = 1.0 + norm_bound(expr, norms) + nf_size
        assert max_abs_diff(direct, ordered) <= 64 * (n + 1) * 2.2e-16 * size
        # the sweep's normal form against the one-rep dense band loop, which
        # sums the same terms in another order
        assert max_abs_diff(ordered, dense_eval_rep(poly, rep)) \
            <= 64 * (n + 1) * 2.2e-16 * (1.0 + nf_size)
