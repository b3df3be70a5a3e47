"""Value behaviour of the record classes: expression nodes, algebra values
and reports."""

import importlib
import pkgutil

import pytest

import gentile
from _reference import substitute
from gentile._record import Record
from gentile.audit import IdentityResult, run_full_audit
from gentile.catalog import FORMAL_Q, Q_AT_N, IdentityEntry
from gentile.coherent import LambdaChoice, build_coherent
from gentile.laurent import ONE, LaurentScalar, q_integer
from gentile.oscillator import spectrum_crosscheck
from gentile.rep import ArcsinAudit, build_rep, number_from_arcsin
from gentile.su2 import DiagonalChoice, solve_representation
from gentile.symbolic import (Add, Algebra, Gen, Mul, NBracket, Pow,
                              ProductSum, Scal, expand_free, normal_order,
                              parse, perm_sum)
from gentile.symbolic.parser import _tokenize

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
    assert hash(ProductSum((X, Y), False)) == hash(((X, Y), False))


def test_equality_needs_the_exact_type():
    assert Add(X, Y) != Mul(X, Y)
    assert Add(X, Y) != NBracket(X, Y)
    assert ProductSum((X, Y), False) != ProductSum((X, Y), True)
    assert Add(X, Y) != (X, Y)
    assert Add(X, Y) != Add(Y, X)


@pytest.mark.parametrize("node,field", [
    (Add(X, Y), "left"), (X, "name"), (Scal(ONE), "value"),
    (Pow(X, 2), "exponent"), (ProductSum((X,), True), "operands"),
])
def test_node_fields_cannot_be_assigned(node, field):
    with pytest.raises(AttributeError, match="frozen"):
        setattr(node, field, Y)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert not hasattr(node, "__dict__")  # slots


def test_repr_has_the_dataclass_form():
    assert repr(X) == "Gen(name='x')"
    assert repr(Add(X, Pow(Y, 2))) == (
        "Add(left=Gen(name='x'), "
        "right=Pow(base=Gen(name='y'), exponent=2))")
    assert repr(ProductSum((X,), True)) \
        == "ProductSum(operands=(Gen(name='x'),), cyclic=True)"
    assert repr(ArcsinAudit((), ((0, 1),))) == (
        "ArcsinAudit(table=(), collisions=((0, 1),))")


def test_keyword_construction_and_substitution_keep_types():
    assert Add(right=Y, left=X) == Add(X, Y)
    e = NBracket(Pow(X, 2), ProductSum((X, Y), False))
    assert substitute(e, {"x": "y", "y": "x"}) \
        == NBracket(Pow(Y, 2), ProductSum((Y, X), False))


@pytest.mark.parametrize("name,cyclic", [("sumperm", False),
                                         ("sumcyc", True)])
def test_operand_sums_parse_to_one_node_with_its_flag(name, cyclic):
    assert parse(f"{name}(u, v)") == ProductSum((Gen("u"), Gen("v")), cyclic)


def test_product_sum_flags_differ_in_value_and_hash():
    perm, cyc = ProductSum((X, Y), False), ProductSum((X, Y), True)
    assert perm != cyc and len({perm, cyc}) == 2
    assert hash(perm) != hash(cyc)


def test_identity_entry_needs_its_specialization():
    with pytest.raises(TypeError, match=r"^IdentityEntry\(\) takes its "
                       r"fields \(id, lhs, rhs, specialization\), all by "
                       r"position or all by keyword$"):
        IdentityEntry("e1", X, Y)
    entry = IdentityEntry("e1", X, Y, Q_AT_N)
    assert IdentityEntry(id="e1", lhs=X, rhs=Y, specialization=Q_AT_N) \
        == entry
    assert entry != IdentityEntry("e1", X, Y, FORMAL_Q)


@pytest.mark.parametrize("args,kwargs", [
    (("e1",), {}),
    (("e1", X, Y, FORMAL_Q, 0), {}),
    (("e1", X, Y), {"specialization": FORMAL_Q}),
    (("e1", X, Y), {"rhs": X}),
    ((), {"id": "e1", "lhs": X, "rhs": Y}),
    ((), {"id": "e1", "lhs": X, "rhs": Y, "specialization": FORMAL_Q,
          "sides": 2}),
], ids=["missing", "extra", "mixed", "repeated", "missing-keyword",
        "unexpected-keyword"])
def test_bad_construction_raises_type_error(args, kwargs):
    # one message for every call that does not give each field once, all
    # by position or all by keyword
    with pytest.raises(TypeError) as raised:
        IdentityEntry(*args, **kwargs)
    assert str(raised.value) == (
        "IdentityEntry() takes its fields (id, lhs, rhs, specialization), "
        "all by position or all by keyword")


def test_results_are_frozen_and_hashable():
    result = _result(verdict="FAIL")
    with pytest.raises(AttributeError, match="frozen"):
        result.verdict = "PASS"
    assert result != _result() and result == _result(verdict="FAIL")
    assert hash(result) == hash(_result(verdict="FAIL"))


def test_algebra_needs_its_power():
    with pytest.raises(TypeError, match=r"^Algebra\(\) takes its fields"):
        Algebra(gen=str, scalar=LaurentScalar, mul=max, qscale=abs)
    with pytest.raises(TypeError, match=r"^Algebra\(\) takes its fields"):
        Algebra(gen=str, scalar=LaurentScalar, mul=max, qscale=abs,
                power=None)
    alg = Algebra(gen=str, scalar=LaurentScalar, mul=max, qscale=abs,
                  power=None, relabel=None)
    assert alg.power is None and alg.relabel is None
    assert alg == Algebra(str, LaurentScalar, max, abs, None, None)


def _record_classes() -> list:
    """Every Record subclass of the package, abstract ones too."""
    for info in pkgutil.walk_packages(gentile.__path__, "gentile."):
        importlib.import_module(info.name)
    classes, stack = [], [Record]
    while stack:
        subclasses = stack.pop().__subclasses__()
        stack.extend(subclasses)
        classes.extend(subclasses)
    return classes


def _concrete_record_classes() -> set:
    """The names of the package's Record classes that have no subclass."""
    return {cls.__qualname__ for cls in _record_classes()
            if not cls.__subclasses__()}


def test_every_record_is_built_by_record_init():
    # no class keeps a constructor of its own next to Record's
    assert [cls.__qualname__ for cls in _record_classes()
            if cls.__init__ is not Record.__init__] == []


def _instances():
    """One instance of each concrete record class, built by the library."""
    nodes = ["b", "2", "b + N", "b - N", "b N", "b^2", "[b, N]_n",
             "[b, N]", "{b, N}", "sumperm(b, N)", "sumcyc(b, N)"]
    return [*map(parse, nodes), perm_sum(Mul(X, Y), ["x", "y"]),
            _tokenize("b")[0],
            Algebra(str, str, max, abs, None, None),
            q_integer(3), expand_free(parse("u v")),
            normal_order(parse("b adag")),
            IdentityEntry("e1", X, Y, FORMAL_Q), _result(), build_rep(3),
            number_from_arcsin(build_rep(3)),
            build_coherent(3, LambdaChoice("plus")),
            spectrum_crosscheck(3)[2],
            solve_representation(3, DiagonalChoice.NUM)]


def _mutable_ways(x) -> list:
    """The ways in which ``x`` is not a frozen, slotted record."""
    ways = ["__dict__"] if hasattr(x, "__dict__") else []
    field = x._fields[0]
    for way, attempt in (("assign", lambda: setattr(x, field, None)),
                         ("delete", lambda: delattr(x, field)),
                         ("new attribute", lambda: setattr(x, "extra", 1))):
        try:
            attempt()
            ways.append(way)
        except AttributeError:
            pass
    return ways


def test_every_record_is_slotted_and_frozen():
    instances = _instances()
    assert {type(x).__qualname__: ways for x in instances
            if (ways := _mutable_ways(x))} == {}
    built = {type(x).__qualname__ for x in instances}
    assert _concrete_record_classes() - built == set()
    # each is a value: built twice, the two are equal with equal hashes
    for x, y in zip(instances, _instances()):
        assert x is not y and x == y and hash(x) == hash(y), type(x)


def test_shared_scalar_constants_are_frozen():
    # ONE is the unit of every fold: an assignment to it once went through
    # and turned every later normal form into 0
    with pytest.raises(AttributeError, match="frozen"):
        ONE._terms = {}
    with pytest.raises(AttributeError, match="frozen"):
        ONE._den = 2
    assert repr(normal_order(parse("b adag"))) == "(1)*1 + (q)*adag*b"


def test_normal_form_eval_tables_are_not_fields():
    # the cached float tables stay out of ==, hash and repr
    filled, fresh = (normal_order(parse("b adag")) for _ in range(2))
    filled.eval_rep(build_rep(2))
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)


def test_audit_results_are_lists_of_frozen_results():
    lists = run_full_audit(n_values=(2,), trials=1, seed=0, entries=[
        IdentityEntry("e1", parse("u v"), parse("u v"), FORMAL_Q)])
    assert [[type(r) for r in results] for results in lists] \
        == [[IdentityResult], [], [IdentityResult]]
