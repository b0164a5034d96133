"""XML serialization of service specifications.

The paper's implementation stores specs in XML ("using the XML Winter
Pack 01"); this module provides the equivalent with :mod:`xml.etree`.
``to_xml`` / ``from_xml`` round-trip every construct of the readable
form: properties, interfaces, components, views (factors), conditions,
behaviors, property-modification rules and descriptions.  Only the
element and attribute mapping lives here; literals and the objects built
from them come from :mod:`repro.spec.codec`, shared with the readable
form.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, List, Mapping, Optional, Tuple

from .codec import (
    BEHAVIORS,
    add_interface,
    add_property,
    add_rule,
    add_unit,
    behavior_texts,
    domain_fields,
    format_value,
    is_membership,
    rule_texts,
)
from .components import ComponentDef
from .properties import SpecError
from .service import ServiceSpec
from .views import ViewDef

__all__ = ["to_xml", "from_xml"]


# -- serialization -----------------------------------------------------------

def _values_el(spec: ServiceSpec, parent: ET.Element, values: Mapping[str, Any]) -> None:
    for prop, value in values.items():
        ET.SubElement(parent, "PropertyValue", name=prop, value=format_value(spec, prop, value))


def _unit_el(spec: ServiceSpec, parent: ET.Element, unit: ComponentDef) -> None:
    if isinstance(unit, ViewDef):
        el = ET.SubElement(
            parent, "View", name=unit.name, represents=unit.represents, kind=unit.kind
        )
        if unit.factors:
            _values_el(spec, ET.SubElement(el, "Factors"), unit.factors)
    else:
        el = ET.SubElement(parent, "Component", name=unit.name)
    if unit.description:
        el.set("description", unit.description)
    if unit.implements or unit.requires:
        linkages = ET.SubElement(el, "Linkages")
        for tag, bindings in (("Implements", unit.implements), ("Requires", unit.requires)):
            for b in bindings:
                _values_el(spec, ET.SubElement(linkages, tag, name=b.interface), b.properties)
    if unit.conditions:
        conds = ET.SubElement(el, "Conditions")
        for c in unit.conditions:
            ET.SubElement(
                conds,
                "Condition",
                property=c.prop,
                op="in" if is_membership(c.requirement) else "eq",
                value=format_value(spec, c.prop, c.requirement),
            )
    texts = behavior_texts(unit.behaviors)
    if texts:
        ET.SubElement(el, "Behaviors", {BEHAVIORS[f][1]: t for f, t in texts.items()})


def to_xml(spec: ServiceSpec) -> str:
    """Serialize a spec to an XML document string."""
    root = ET.Element("Service", name=spec.name)
    if spec.description:
        root.set("description", spec.description)
    for prop in spec.properties.values():
        type_name, values, value_range = domain_fields(prop.domain)
        el = ET.SubElement(root, "Property", name=prop.name, type=type_name)
        if values:
            el.set("values", ",".join(values))
        if value_range:
            el.set("valueRange", value_range)
        if prop.match_mode != "exact":
            el.set("match", prop.match_mode)
        if prop.description:
            el.set("description", prop.description)
    for iface in spec.interfaces.values():
        ET.SubElement(
            root, "Interface", name=iface.name, properties=",".join(iface.properties)
        )
    for unit in spec.units():
        _unit_el(spec, root, unit)
    for prop_name in spec.rules.properties():
        rule_el = ET.SubElement(root, "PropertyModificationRule", property=prop_name)
        for in_text, env_text, out_text in rule_texts(spec, prop_name):
            ET.SubElement(rule_el, "Rule", {"in": in_text, "env": env_text, "out": out_text})
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


# -- deserialization ---------------------------------------------------------

def _values(parent: Optional[ET.Element]) -> List[Tuple[str, str]]:
    if parent is None:
        return []
    return [(pv.get("name", ""), pv.get("value", "")) for pv in parent.findall("PropertyValue")]


def from_xml(text: str) -> ServiceSpec:
    """Parse an XML document into a validated :class:`ServiceSpec`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SpecError(f"malformed XML: {exc}") from None
    if root.tag != "Service":
        raise SpecError(f"expected <Service> root, got <{root.tag}>")
    spec = ServiceSpec(name=root.get("name", "service"), description=root.get("description", ""))

    for el in root.findall("Property"):
        add_property(
            spec,
            el.get("name", ""),
            el.get("type", ""),
            values=el.get("values"),
            value_range=el.get("valueRange"),
            match=el.get("match", "exact"),
            description=el.get("description", ""),
        )
    for el in root.findall("Interface"):
        add_interface(spec, el.get("name", ""), el.get("properties", ""))
    for el in root.findall("Component") + root.findall("View"):
        behaviors = el.find("Behaviors")
        attrs = behaviors.attrib if behaviors is not None else {}
        add_unit(
            spec,
            el.get("name", ""),
            implements=[(b.get("name", ""), _values(b)) for b in el.iterfind("Linkages/Implements")],
            requires=[(b.get("name", ""), _values(b)) for b in el.iterfind("Linkages/Requires")],
            conditions=[
                (c.get("property", ""), c.get("op") == "in", c.get("value", ""))
                for c in el.iterfind("Conditions/Condition")
            ],
            behaviors={name: attrs.get(attr) for name, (_key, attr, _type) in BEHAVIORS.items()},
            description=el.get("description", ""),
            represents=el.get("represents", "") if el.tag == "View" else None,
            kind=el.get("kind", "data"),
            factors=_values(el.find("Factors")),
        )
    for el in root.findall("PropertyModificationRule"):
        add_rule(
            spec,
            el.get("property", ""),
            ((r.get("in", "ANY"), r.get("env", "ANY"), r.get("out", "ANY")) for r in el.findall("Rule")),
        )
    return spec.validate()
