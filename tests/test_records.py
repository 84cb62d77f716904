"""The contracts of the library's value types: every record is immutable,
survives pickle and deepcopy unchanged, and prints as Name(field=value, ...).

The records are named tuples, so they also compare equal to plain tuples of
the same values.  EisensteinInt is a slotted class instead, so that it equals
the integer it represents and never a pair.

The module needs only the standard library and cubic93, so the same checks
run under interpreters that have no pytest:

    PYTHONPATH=src python -S tests/test_records.py
"""

from __future__ import annotations

import copy
import pickle

from cubic93.classifier import ClassGroupShape, classify, type93_equivalence
from cubic93.eisenstein import EisensteinInt, factor, factor_rational_prime
from cubic93.fixtures import FixtureRow, load_bundled_fixtures
from cubic93.genus import genus_field_description
from cubic93.ramification import ramify


def _values() -> dict:
    return {
        "EisensteinInt(1, 2)": EisensteinInt(1, 2),
        "factor(7 + 3w)": factor(EisensteinInt(7, 3)),
        "factor_rational_prime(7)": factor_rational_prime(7),
        "ClassGroupShape.of(9, 3)": ClassGroupShape.of(9, 3),
        "ramify(42)": ramify(42),
        "genus_field_description(91, False)": genus_field_description(91, False),
        "bundled FixtureRow": load_bundled_fixtures()[0],
        "classify(199, 9, 1)": classify(199, 9, 1),
    }


#: reprs recorded while the records were still frozen dataclasses
_REPRS = {
    "EisensteinInt(1, 2)": "EisensteinInt(a=1, b=2)",
    "factor(7 + 3w)": (
        "EisensteinFactorization(unit=EisensteinInt(a=-1, b=0),"
        " factors=((EisensteinInt(a=-7, b=-3), 1),))"
    ),
    "factor_rational_prime(7)": (
        "PrimeSplitting(p=7, kind=<SplitKind.SPLIT: 'split'>,"
        " factors=(EisensteinInt(a=2, b=3), EisensteinInt(a=-1, b=-3)))"
    ),
    "ClassGroupShape.of(9, 3)": "ClassGroupShape(orders=(9, 3))",
    "genus_field_description(91, False)": (
        "GenusReport(d=91, r=2, genus_number=9,"
        " m_fields=((7, (1, 1, -2, -1)), (13, (1, 1, -4, 1))),"
        " hilbert_equals_genus=None,"
        " notes=('the genus field always embeds in the Hilbert 3-class field',))"
    ),
    "bundled FixtureRow": (
        "FixtureRow(p=199, h_gamma3=9, h_k3=27, u=1,"
        " c_gamma=ClassGroupShape(orders=(9,)), c_k=ClassGroupShape(orders=(9, 3)))"
    ),
}


def _raises(exc: type[BaseException], fn, *args) -> str:
    """The message of the exc that fn(*args) raises; anything else fails."""
    try:
        fn(*args)
    except exc as err:
        return str(err)
    raise AssertionError(f"{fn.__name__}{args} did not raise {exc.__name__}")


def test_values_survive_pickle_and_deepcopy():
    for name, value in _values().items():
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value), name
            assert twin == value and hash(twin) == hash(value), name
            assert repr(twin) == repr(value), name


def test_reprs_are_those_of_the_dataclasses():
    values = _values()
    for name, text in _REPRS.items():
        assert repr(values[name]) == text, name
    assert repr(classify(61).reasons) == (
        "(Reason(code=<ReasonCode.CUBIC_SYMBOL_CONJECTURE: 'cubic_symbol_conjecture'>,"
        " detail='(3/61)_3 = 1: predicted shape Z/3 x Z/3', conjectural=True),)"
    )
    assert repr(type93_equivalence("backward", c_gamma=ClassGroupShape.of(9), u=3)) == (
        "EquivalenceResult(applicable=True, consistent=True, c_k=None,"
        " c_gamma=ClassGroupShape(orders=(9,)), u=3, trace=('(c_gamma, u) = (Z/9, 3)"
        " does not satisfy (Z/9, 1), so the sextic 3-class group is not of type (9, 3)',))"
    )


def test_values_are_immutable():
    for name, value in _values().items():
        field = getattr(value, "_fields", ("a",))[0]
        _raises(AttributeError, setattr, value, field, None)
        _raises(AttributeError, setattr, value, "extra", None)
    z = EisensteinInt(1, 2)
    assert _raises(AttributeError, setattr, z, "a", 5) == "cannot assign to field 'a'"
    assert _raises(AttributeError, delattr, z, "b") == "cannot delete field 'b'"
    assert (z.a, z.b) == (1, 2)


def test_eisenstein_integers_equal_integers_not_pairs():
    assert EisensteinInt(1, 0) != (1, 0) and EisensteinInt(1, 2) != (1, 2)
    assert EisensteinInt(1, 0) == 1 and hash(EisensteinInt(3)) == hash(3)
    assert EisensteinInt() == 0 and EisensteinInt(b=1) == EisensteinInt(0, 1)


def test_records_are_tuples_of_their_fields():
    assert ClassGroupShape.of(9, 3) == ((9, 3),)
    p, kind, factors = factor_rational_prime(7)
    assert (p, kind.value, len(factors)) == (7, "split", 2)
    # the fixture file's keys, in order: the schema is written only here
    assert FixtureRow._fields == ("p", "h_gamma3", "h_k3", "u", "c_gamma", "c_k")


def test_bad_shapes_still_raise():
    for orders, message in (
        ((3, 9), "orders (3, 9) must be non-increasing"),
        ((6,), "cyclic order 6 is not a power of 3"),
        ((9, 1), "cyclic order 1 is not a group order >= 2"),
    ):
        assert _raises(ValueError, ClassGroupShape, orders) == message
        assert _raises(ValueError, ClassGroupShape.of, *orders) == message


if __name__ == "__main__":
    for _name, _test in list(globals().items()):
        if _name.startswith("test_"):
            _test()
            print("ok", _name)
