"""Tests for the readable-form specification parser."""

import pytest

from repro.spec import (
    ANY,
    EnvRef,
    OneOf,
    ParseError,
    SpecError,
    ValueRange,
    parse_service,
)

MINIMAL = """
<Property>
Name: Confidentiality
Type: Boolean
Values: T, F
</Property>

<Interface>
Name: I
Properties: Confidentiality
</Interface>

<Component>
Name: C
<Linkages>
<Implements>
Name: I
Properties: Confidentiality = T
</Implements>
</Linkages>
</Component>
"""


def test_minimal_spec_parses():
    spec = parse_service(MINIMAL, name="svc")
    assert spec.name == "svc"
    comp = spec.unit("C")
    assert comp.implements[0].interface == "I"
    assert comp.implements[0].properties == {"Confidentiality": True}
    assert comp.is_terminal


def test_service_wrapper_sets_name():
    text = "<Service>\nName: wrapped\n" + MINIMAL + "\n</Service>"
    spec = parse_service(text)
    assert spec.name == "wrapped"


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL.replace(
        "Type: Boolean", "Type: Boolean  # trailing comment"
    )
    spec = parse_service(text)
    assert "C" in spec.components


def test_multiline_property_list_joined_on_comma():
    text = MINIMAL.replace(
        "Properties: Confidentiality = T",
        "Properties: Confidentiality = T,\nConfidentiality = T",
    )
    spec = parse_service(text)  # same key twice collapses
    assert spec.unit("C").implements[0].properties == {"Confidentiality": True}


def test_view_requires_represents():
    text = MINIMAL + """
<View>
Name: V
<Linkages>
<Implements>
Name: I
Properties: Confidentiality = T
</Implements>
</Linkages>
</View>
"""
    with pytest.raises(ParseError):
        parse_service(text)


def test_view_with_factors_and_conditions():
    text = """
<Property>
Name: TrustLevel
Type: Interval
ValueRange: (1,5)
Match: AtLeast
</Property>
<Interface>
Name: S
Properties: TrustLevel
</Interface>
<Component>
Name: Server
<Linkages>
<Implements>
Name: S
Properties: TrustLevel = 5
</Implements>
</Linkages>
</Component>
<View>
Name: V
Represents: Server
Kind: data
<Factors>
Properties: TrustLevel = Node.TrustLevel
</Factors>
<Linkages>
<Implements>
Name: S
Properties: TrustLevel = Node.TrustLevel
</Implements>
<Requires>
Name: S
Properties: TrustLevel = Node.TrustLevel
</Requires>
</Linkages>
<Conditions>
Properties: Node.TrustLevel in (1,3)
</Conditions>
<Behaviors>
RRF: 0.2
Capacity: 500
</Behaviors>
</View>
"""
    spec = parse_service(text)
    v = spec.unit("V")
    assert v.is_view
    assert v.represents == "Server"
    assert v.factors == {"TrustLevel": EnvRef("Node", "TrustLevel")}
    assert v.conditions[0].prop == "TrustLevel"  # Node. prefix stripped
    assert v.conditions[0].requirement == ValueRange(1, 3)
    assert v.behaviors.rrf == 0.2
    assert v.behaviors.capacity == 500
    assert spec.properties["TrustLevel"].match_mode == "at_least"


def test_rule_block_parses_figure4():
    text = MINIMAL + """
<PropertyModificationRule>
Name: Confidentiality
Rules:
(In: T) x (Env: T) = (Out: T)
(In: F) x (Env: ANY) = (Out: F)
(In: ANY) x (Env: F) = (Out: F)
</PropertyModificationRule>
"""
    spec = parse_service(text)
    assert spec.rules.apply("Confidentiality", True, False) is False
    assert spec.rules.apply("Confidentiality", True, True) is True


def test_rule_row_malformed():
    text = MINIMAL + """
<PropertyModificationRule>
Name: Confidentiality
Rules:
(In: T) & (Env: T) -> T
</PropertyModificationRule>
"""
    with pytest.raises(ParseError):
        parse_service(text)


def test_condition_set_membership():
    text = MINIMAL.replace(
        "</Linkages>",
        "</Linkages>\n<Conditions>\nProperties: User = {Alice,Bob}\n</Conditions>",
    )
    spec = parse_service(text)
    cond = spec.unit("C").conditions[0]
    assert cond.evaluate({"User": "Alice"})
    assert cond.evaluate({"User": "Bob"})
    assert not cond.evaluate({"User": "Mallory"})
    assert not cond.evaluate({})


def test_unclosed_tag_rejected():
    with pytest.raises(ParseError):
        parse_service("<Component>\nName: X\n")


def test_mismatched_close_rejected():
    with pytest.raises(ParseError):
        parse_service("<Component>\nName: X\n</View>")


def test_unknown_top_level_block_rejected():
    with pytest.raises(ParseError):
        parse_service(MINIMAL + "\n<Gadget>\nName: G\n</Gadget>")


def test_unknown_interface_reference_rejected():
    text = MINIMAL.replace("Name: I\nProperties: Confidentiality = T", "Name: Mystery")
    with pytest.raises(SpecError):
        parse_service(text)


def test_value_outside_domain_rejected():
    text = """
<Property>
Name: TrustLevel
Type: Interval
ValueRange: (1,5)
</Property>
<Interface>
Name: I
Properties: TrustLevel
</Interface>
<Component>
Name: C
<Linkages>
<Implements>
Name: I
Properties: TrustLevel = 9
</Implements>
</Linkages>
</Component>
"""
    with pytest.raises(SpecError):
        parse_service(text)


def test_behaviors_all_fields():
    text = MINIMAL.replace(
        "</Linkages>",
        "</Linkages>\n<Behaviors>\nCapacity: 100\nRRF: 0.5\nCpuPerRequest: 2\n"
        "RequestRate: 7\nBytesPerRequest: 1000\nBytesPerResponse: 2000\nCodeSize: 5000\n</Behaviors>",
    )
    b = parse_service(text).unit("C").behaviors
    assert (b.capacity, b.rrf, b.cpu_per_request) == (100, 0.5, 2)
    assert (b.request_rate, b.bytes_per_request, b.bytes_per_response) == (7, 1000, 2000)
    assert b.code_size_bytes == 5000
