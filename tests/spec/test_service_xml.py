"""Tests for ServiceSpec validation and XML round-tripping."""

import pytest

from repro.network import FunctionTranslator, Network
from repro.planner import PlanningContext
from repro.services.mail import MAIL_SPEC_TEXT, build_mail_spec
from repro.spec import (
    ANY,
    Behaviors,
    BooleanDomain,
    ComponentDef,
    Condition,
    EnvRef,
    InterfaceBinding,
    InterfaceDef,
    IntervalDomain,
    PropertyDef,
    ServiceSpec,
    SpecError,
    ValueRange,
    ViewDef,
    from_xml,
    parse_service,
    to_xml,
)


def small_spec():
    spec = ServiceSpec("svc")
    spec.add_property(PropertyDef("Conf", BooleanDomain()))
    spec.add_property(PropertyDef("Trust", IntervalDomain(1, 5), match_mode="at_least"))
    spec.add_interface(InterfaceDef("S", ("Conf", "Trust")))
    spec.add_component(
        ComponentDef(
            "Server",
            implements=(InterfaceBinding("S", {"Conf": True, "Trust": 5}),),
            conditions=(Condition("Trust", 5),),
            behaviors=Behaviors(capacity=100, rrf=1.0),
        )
    )
    spec.add_view(
        ViewDef(
            "V",
            represents="Server",
            kind="data",
            factors={"Trust": EnvRef("Node", "Trust")},
            implements=(InterfaceBinding("S", {"Conf": True, "Trust": EnvRef("Node", "Trust")}),),
            requires=(InterfaceBinding("S", {"Conf": True}),),
            conditions=(Condition("Trust", ValueRange(1, 3)),),
            behaviors=Behaviors(rrf=0.2),
        )
    )
    return spec.validate()


def test_validate_passes_well_formed():
    small_spec()


def test_duplicate_names_rejected():
    spec = small_spec()
    with pytest.raises(SpecError):
        spec.add_property(PropertyDef("Conf", BooleanDomain()))
    with pytest.raises(SpecError):
        spec.add_interface(InterfaceDef("S"))
    with pytest.raises(SpecError):
        spec.add_component(ComponentDef("Server"))


def test_unknown_interface_in_component_rejected():
    spec = small_spec()
    spec.add_component(
        ComponentDef("Bad", implements=(InterfaceBinding("Nope", {}),))
    )
    with pytest.raises(SpecError, match="unknown interface"):
        spec.validate()


def test_binding_property_not_on_interface_rejected():
    spec = small_spec()
    spec.add_property(PropertyDef("Other", BooleanDomain()))
    spec.add_component(
        ComponentDef("Bad", implements=(InterfaceBinding("S", {"Other": True}),))
    )
    with pytest.raises(SpecError, match="does not carry"):
        spec.validate()


def test_view_of_unknown_component_rejected():
    spec = small_spec()
    spec.add_view(
        ViewDef("V2", represents="Ghost", implements=(InterfaceBinding("S", {}),))
    )
    with pytest.raises(SpecError, match="unknown component"):
        spec.validate()


def test_unit_queries():
    spec = small_spec()
    assert spec.unit("Server").name == "Server"
    assert spec.unit("V").is_view
    assert [u.name for u in spec.implementers_of("S")] == ["Server", "V"]
    assert [v.name for v in spec.views.values() if v.represents == "Server"] == ["V"]
    with pytest.raises(SpecError):
        spec.unit("missing")


def test_view_configure_binds_factors():
    spec = small_spec()
    v = spec.views["V"]
    net = Network()
    net.add_node("n", credentials={"Trust": 2})
    ctx = PlanningContext(spec, net, FunctionTranslator(lambda node: node.credentials))
    assert ctx.resolve_factors(v, "n") == {"Trust": 2}
    assert ctx.resolved_implements(v, "n")["S"]["Trust"] == 2


def test_view_kind_validation():
    with pytest.raises(SpecError):
        ViewDef("V", represents="X", kind="weird")


def test_xml_roundtrip_small():
    spec = small_spec()
    xml = to_xml(spec)
    spec2 = from_xml(xml)
    assert sorted(spec2.properties) == sorted(spec.properties)
    assert spec2.properties["Trust"].match_mode == "at_least"
    v2 = spec2.unit("V")
    assert v2.factors == {"Trust": EnvRef("Node", "Trust")}
    assert v2.conditions[0].requirement == ValueRange(1, 3)
    assert v2.behaviors.rrf == 0.2
    # Round-trip again: fixpoint.
    assert to_xml(spec2) == xml


def test_xml_roundtrip_mail_spec():
    spec = build_mail_spec()
    spec2 = from_xml(to_xml(spec))
    assert sorted(u.name for u in spec2.units()) == sorted(u.name for u in spec.units())
    mc = spec2.unit("MailClient")
    assert mc.requires[0].properties["Confidentiality"] is True
    enc = spec2.unit("Encryptor")
    assert enc.implements[0].properties["TrustLevel"] is ANY
    assert spec2.rules.apply("Confidentiality", True, False) is False
    assert to_xml(spec2) == to_xml(spec)


def test_mail_spec_matches_paper_figure2():
    """Spot-checks against the values printed in Figure 2."""
    spec = build_mail_spec()
    assert spec.unit("MailServer").behaviors.capacity == 1000
    assert spec.unit("ViewMailServer").behaviors.rrf == 0.2
    vms = spec.unit("ViewMailServer")
    assert vms.factors["TrustLevel"] == EnvRef("Node", "TrustLevel")
    assert vms.conditions[0].requirement == ValueRange(1, 3)
    assert spec.properties["TrustLevel"].domain.lo == 1
    assert spec.properties["TrustLevel"].domain.hi == 5
    ms = spec.unit("MailServer")
    assert ms.implements_interface("ServerInterface").properties["TrustLevel"] == 5
    assert spec.unit("Decryptor").requires[0].properties == {"Confidentiality": True}


def test_mail_spec_views_represent_components():
    spec = build_mail_spec()
    assert spec.unit("ViewMailServer").represents == "MailServer"
    assert spec.unit("ViewMailClient").represents == "MailClient"
    assert spec.unit("ViewMailClient").kind == "object"
    assert spec.unit("ViewMailServer").kind == "data"
