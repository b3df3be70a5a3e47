"""Value behaviour of the record classes: expression nodes and reports."""

import copy
import pickle

import pytest

from gentile.audit import AuditReport, IdentityResult
from gentile.catalog import FORMAL_Q, Q_AT_N, IdentityEntry
from gentile.laurent import ONE, LaurentScalar
from gentile.rep import ArcsinAudit
from gentile.symbolic import (Add, Algebra, Gen, Mul, NBracket, Pow, Scal,
                              SumCyc, SumPerm, parse, substitute)

X, Y = Gen("x"), Gen("y")


def _result(identity_id="e1", verdict="PASS"):
    return IdentityResult(identity_id, "FREE", FORMAL_Q, "0", None, (),
                          verdict)


def test_equal_trees_are_equal_with_equal_hashes():
    text = "sumperm(adag, N) - {b^2, 1/2 q^-1 [N, adag]_n} + sumcyc(b, N)"
    a, b = parse(text), parse(text)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(Add(X, Y)) == hash((X, Y))
    assert hash(X) == hash(("x",))
    assert hash(SumPerm((X, Y))) == hash(((X, Y),))


def test_equality_needs_the_exact_type():
    assert Add(X, Y) != Mul(X, Y)
    assert Add(X, Y) != NBracket(X, Y)
    assert SumPerm((X, Y)) != SumCyc((X, Y))
    assert Add(X, Y) != (X, Y)
    assert Add(X, Y) != Add(Y, X)


@pytest.mark.parametrize("node,field", [
    (Add(X, Y), "left"), (X, "name"), (Scal(ONE), "value"),
    (Pow(X, 2), "exponent"), (SumCyc((X,)), "operands"),
])
def test_node_fields_cannot_be_assigned(node, field):
    with pytest.raises(AttributeError, match="frozen"):
        setattr(node, field, Y)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert not hasattr(node, "__dict__")  # slots


def test_copy_and_pickle_rebuild_equal_values():
    e = parse("sumperm(adag, N) - 1/2 q^-1 [N, adag^2]_n")
    for clone in (copy.copy(e), copy.deepcopy(e),
                  pickle.loads(pickle.dumps(e))):
        assert clone == e and type(clone) is type(e)
    entry = IdentityEntry("e1", X, Y, Q_AT_N)
    assert pickle.loads(pickle.dumps(entry)) == entry


def test_negative_power_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        Pow(X, -1)
    assert Pow(X, 0).exponent == 0


def test_repr_has_the_dataclass_form():
    assert repr(X) == "Gen(name='x')"
    assert repr(Add(X, Pow(Y, 2))) == (
        "Add(left=Gen(name='x'), "
        "right=Pow(base=Gen(name='y'), exponent=2))")
    assert repr(SumCyc((X,))) == "SumCyc(operands=(Gen(name='x'),))"
    assert repr(ArcsinAudit((), ((0, 1),))) == (
        "ArcsinAudit(table=(), collisions=((0, 1),))")


def test_keyword_construction_and_substitution_keep_types():
    assert Add(right=Y, left=X) == Add(X, Y)
    e = NBracket(Pow(X, 2), SumPerm((X, Y)))
    assert substitute(e, {"x": "y", "y": "x"}) \
        == NBracket(Pow(Y, 2), SumPerm((Y, X)))


def test_identity_entry_defaults_to_formal_q():
    entry = IdentityEntry("e1", X, Y)
    assert entry.specialization == FORMAL_Q
    assert IdentityEntry(id="e1", lhs=X, rhs=Y) == entry
    assert IdentityEntry("e1", X, Y, Q_AT_N).specialization == Q_AT_N
    assert entry != IdentityEntry("e1", X, Y, Q_AT_N)


@pytest.mark.parametrize("args,kwargs,message", [
    (("e1",), {}, "missing arguments: 'lhs', 'rhs'"),
    (("e1", X, Y, FORMAL_Q, 0), {}, "takes 4 arguments but 5 were given"),
    (("e1", X, Y), {"rhs": X}, "multiple values for argument 'rhs'"),
    (("e1", X, Y), {"sides": 2}, "unexpected keyword argument 'sides'"),
])
def test_bad_construction_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        IdentityEntry(*args, **kwargs)


def test_results_are_mutable_and_unhashable():
    result = _result(verdict="FAIL")
    result.verdict = "PASS"
    assert result == _result()
    with pytest.raises(TypeError):
        hash(result)


def test_audit_report_rejects_duplicate_ids():
    AuditReport([_result("e1"), _result("e2")], seed=0)
    with pytest.raises(AssertionError, match="duplicate result ids"):
        AuditReport([_result("e1"), _result("e1")], seed=0)


def test_algebra_power_defaults_to_none():
    alg = Algebra(gen=str, scalar=LaurentScalar, mul=max, qscale=abs)
    assert alg.power is None
    assert alg == Algebra(str, LaurentScalar, max, abs, None)
