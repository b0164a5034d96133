"""Tests for the property system: domains, values, matching."""

import pytest

from repro.spec import (
    ANY,
    AnyValue,
    BooleanDomain,
    EnumDomain,
    EnvRef,
    IntervalDomain,
    NumberDomain,
    OneOf,
    PropertyDef,
    SpecError,
    StringDomain,
    ValueRange,
    parse_domain,
    satisfies,
)
from repro.spec.codec import parse_value


def test_any_is_singleton():
    assert AnyValue() is ANY
    assert repr(ANY) == "ANY"


def test_env_ref_parse():
    ref = EnvRef.parse("Node.TrustLevel")
    assert ref.scope == "Node" and ref.prop == "TrustLevel"
    assert repr(ref) == "Node.TrustLevel"
    with pytest.raises(SpecError):
        EnvRef.parse("Node")
    with pytest.raises(SpecError):
        EnvRef("Weird", "x")


def test_value_range_membership():
    r = ValueRange(1, 5)
    assert 1 in r and 5 in r and 3 in r
    assert 0 not in r and 6 not in r
    assert True not in r  # bools are not levels
    assert list(r) == [1, 2, 3, 4, 5]
    with pytest.raises(SpecError):
        ValueRange(5, 1)


def test_one_of_membership():
    s = OneOf([1, 3])
    assert 1 in s and 3 in s and 2 not in s


# -- satisfies -----------------------------------------------------------

def test_satisfies_any_requirement():
    assert satisfies(ANY, None)
    assert satisfies(ANY, 42)


def test_satisfies_any_actual_is_transparent():
    # An implementation declaring ANY delivers whatever is required.
    assert satisfies(4, ANY)
    assert satisfies(ValueRange(1, 3), ANY)


def test_satisfies_none_actual_fails_concrete():
    assert not satisfies(4, None)
    assert not satisfies(ValueRange(1, 3), None)


def test_satisfies_exact():
    assert satisfies(4, 4)
    assert not satisfies(4, 5)


def test_satisfies_membership():
    assert satisfies(ValueRange(1, 3), 2)
    assert not satisfies(ValueRange(1, 3), 4)
    assert satisfies(OneOf(["a", "b"]), "a")
    assert not satisfies(OneOf(["a", "b"]), "c")


def test_satisfies_ordered_modes():
    assert satisfies(4, 5, "at_least")
    assert satisfies(4, 4, "at_least")
    assert not satisfies(4, 3, "at_least")
    assert satisfies(4, 3, "at_most")
    assert not satisfies(4, 5, "at_most")


def test_satisfies_unknown_mode():
    with pytest.raises(SpecError):
        satisfies(4, 4, "fuzzy")


# -- domains -------------------------------------------------------------

def test_boolean_domain():
    d = BooleanDomain()
    assert d.parse("T") is True
    assert d.parse("F") is False
    assert d.contains(True) and not d.contains(1)
    with pytest.raises(SpecError):
        d.parse("maybe")


def test_interval_domain():
    d = IntervalDomain(1, 5)
    assert d.contains(3) and not d.contains(6)
    assert not d.contains(True)  # bool is not an int level
    assert d.parse("4") == 4
    with pytest.raises(SpecError):
        d.parse("x")
    with pytest.raises(SpecError):
        IntervalDomain(3, 1)


def test_string_and_number_domains():
    assert StringDomain().parse("  Alice ") == "Alice"
    assert NumberDomain().parse("2.5") == 2.5
    assert NumberDomain().contains(3) and not NumberDomain().contains(True)


def test_enum_domain():
    d = EnumDomain(["low", "high"])
    assert d.parse("low") == "low"
    with pytest.raises(SpecError):
        d.parse("medium")
    with pytest.raises(SpecError):
        EnumDomain([])


def test_parse_domain_factory():
    assert isinstance(parse_domain("Boolean"), BooleanDomain)
    iv = parse_domain("Interval", value_range="(1,5)")
    assert isinstance(iv, IntervalDomain) and iv.lo == 1 and iv.hi == 5
    assert isinstance(parse_domain("String"), StringDomain)
    assert isinstance(parse_domain("Number"), NumberDomain)
    en = parse_domain("Enum", values="a, b")
    assert isinstance(en, EnumDomain)
    with pytest.raises(SpecError):
        parse_domain("Blob")
    with pytest.raises(SpecError):
        parse_domain("Interval")  # missing range


# -- PropertyDef ----------------------------------------------------------

def test_property_def_validation():
    p = PropertyDef("TrustLevel", IntervalDomain(1, 5))
    assert p.validate(3) == 3
    assert p.validate(ANY) is ANY
    with pytest.raises(SpecError):
        p.validate(9)


def test_property_def_parse_value_forms():
    domain = PropertyDef("TrustLevel", IntervalDomain(1, 5)).domain
    assert parse_value("3", domain) == 3
    assert parse_value("ANY", domain) is ANY
    assert parse_value("Node.TrustLevel", domain) == EnvRef("Node", "TrustLevel")
    assert parse_value("(1,3)", domain) == ValueRange(1, 3)
    assert parse_value("{1,3}", domain) == OneOf([1, 3])
    # An undeclared (environment) property reads the same literals.
    assert parse_value("T") is True
    assert parse_value("{a,b}") == OneOf(["a", "b"])
    assert parse_value("(1,4)") == ValueRange(1, 4)
    assert parse_value("2.5") == 2.5
    assert parse_value("Alice") == "Alice"


def test_property_def_match_mode_validation():
    with pytest.raises(SpecError):
        PropertyDef("X", BooleanDomain(), match_mode="wrong")
