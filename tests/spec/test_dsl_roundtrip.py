"""Round-trip tests for the readable-form serializer (to_text)."""

import pytest

from repro.services.mail import build_mail_spec
from repro.spec import ANY, ModificationRule, PropertyModificationRule, SpecError, parse_service
from repro.spec.dsl import to_text


def test_mail_spec_roundtrips_through_text():
    spec = build_mail_spec()
    text = to_text(spec)
    spec2 = parse_service(text)
    assert spec2.name == spec.name
    assert sorted(spec2.properties) == sorted(spec.properties)
    assert sorted(u.name for u in spec2.units()) == sorted(u.name for u in spec.units())
    for unit in spec.units():
        u2 = spec2.unit(unit.name)
        assert [dict(b.properties) for b in u2.implements] == [
            dict(b.properties) for b in unit.implements
        ]
        assert [dict(b.properties) for b in u2.requires] == [
            dict(b.properties) for b in unit.requires
        ]
        assert u2.behaviors == unit.behaviors
        assert list(u2.conditions) == list(unit.conditions)
    # Fixpoint: serialize-parse-serialize is stable.
    assert to_text(spec2) == text


def test_match_modes_survive_text_roundtrip():
    spec2 = parse_service(to_text(build_mail_spec()))
    assert spec2.properties["TrustLevel"].match_mode == "at_least"


def test_rules_survive_text_roundtrip():
    spec2 = parse_service(to_text(build_mail_spec()))
    assert spec2.rules.apply("Confidentiality", True, False) is False
    assert spec2.rules.apply("Confidentiality", True, True) is True


def test_computed_rule_not_serializable():
    from repro.services.video import build_video_spec

    with pytest.raises(SpecError, match="computed output"):
        to_text(build_video_spec())


def test_views_keep_represents_kind_factors():
    spec2 = parse_service(to_text(build_mail_spec()))
    vms = spec2.unit("ViewMailServer")
    assert vms.represents == "MailServer"
    assert vms.kind == "data"
    assert str(vms.factors["TrustLevel"]) == "Node.TrustLevel"


def test_descriptions_survive_both_syntaxes():
    from repro.spec import from_xml, to_xml

    spec = build_mail_spec()
    spec.properties["TrustLevel"].description = "how far a node is trusted"
    spec.components["MailServer"].description = "the mail store"
    spec.views["ViewMailServer"].description = "a cached server replica"
    for spec2 in (parse_service(to_text(spec)), from_xml(to_xml(spec))):
        assert spec2.properties["TrustLevel"].description == "how far a node is trusted"
        assert spec2.unit("MailServer").description == "the mail store"
        assert spec2.unit("ViewMailServer").description == "a cached server replica"
        assert spec2.unit("MailClient").description == ""
    assert 'description="the mail store"' in to_xml(spec)
    assert "description=" not in to_xml(build_mail_spec())


def test_service_description_survives_both_syntaxes():
    from repro.spec import from_xml, to_xml

    plain = build_mail_spec()
    text, xml = to_text(plain), to_xml(plain)
    spec = build_mail_spec()
    spec.description = "the paper's mail service"
    for spec2 in (parse_service(to_text(spec)), from_xml(to_xml(spec))):
        assert spec2.description == "the paper's mail service"
    assert to_text(spec).splitlines()[:3] == [
        "<Service>", "Name: mail", "Description: the paper's mail service"
    ]
    # An empty description writes nothing: the mail spec's output is unchanged.
    assert parse_service(text).description == from_xml(xml).description == ""
    assert "Description" not in text.split("<Property>", 1)[0]
    assert "description=" not in xml


def test_behavior_floats_survive_both_syntaxes():
    """A metric ``%g`` would round (six significant digits) is written
    in full; one it prints exactly keeps its short form."""
    from repro.spec import Behaviors, from_xml, to_xml

    spec = build_mail_spec()
    exact = Behaviors(capacity=1234567.0, cpu_per_request=0.1234567)
    spec.components["MailServer"].behaviors = exact
    for spec2 in (parse_service(to_text(spec)), from_xml(to_xml(spec))):
        assert spec2.unit("MailServer").behaviors == exact
    assert "Capacity: 1234567.0" in to_text(spec)
    assert 'rrf="0.2"' in to_xml(build_mail_spec())


def test_readable_form_refuses_a_description_it_would_cut():
    spec = build_mail_spec()
    spec.components["MailServer"].description = "see #3"
    with pytest.raises(SpecError, match="Description"):
        to_text(spec)


def test_a_range_in_a_rule_row_survives_both_syntaxes():
    """A rule cell may hold one level of parentheses, so a range such as
    ``(1,3)`` writes and reads back in the readable form as in XML."""
    from repro.spec import ValueRange, from_xml, to_xml

    spec = build_mail_spec()
    spec.rules.add(
        PropertyModificationRule(
            "TrustLevel",
            (ModificationRule(ValueRange(1, 3), ANY, 1), ModificationRule(ANY, ANY, ANY)),
        )
    )
    text = to_text(spec)
    assert "(In: (1,3)) x (Env: ANY) = (Out: 1)" in text.splitlines()
    for spec2 in (parse_service(text), from_xml(to_xml(spec))):
        assert spec2.rules.rule_for("TrustLevel").rules == spec.rules.rule_for("TrustLevel").rules
        assert spec2.rules.apply("TrustLevel", 2, 5) == 1
        assert spec2.rules.apply("TrustLevel", 4, 5) is ANY
    assert to_text(parse_service(text)) == text


def test_readable_rule_rows_refuse_what_would_not_read_back():
    """A cell with an unbalanced or doubly nested parenthesis would be cut
    short by the row's own ``)``, so the readable form refuses it."""
    for value in ("a)b", "((x))"):
        spec = build_mail_spec()
        spec.rules.add(PropertyModificationRule("Site", (ModificationRule(ANY, ANY, value),)))
        with pytest.raises(SpecError, match="cannot be written"):
            to_text(spec)
