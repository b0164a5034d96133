"""Property-based round-trip: random generated specs survive XML I/O."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

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
    StringDomain,
    ValueRange,
    ViewDef,
    from_xml,
    to_xml,
)

names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)


@st.composite
def specs(draw):
    spec = ServiceSpec(draw(names))
    # Properties: one of each domain family, random match modes.
    prop_names = draw(
        st.lists(names, min_size=1, max_size=4, unique=True)
    )
    domains = [BooleanDomain(), IntervalDomain(1, 9), StringDomain()]
    for i, pname in enumerate(prop_names):
        spec.add_property(
            PropertyDef(
                pname,
                domains[i % len(domains)],
                match_mode=draw(st.sampled_from(["exact", "at_least", "at_most"])),
            )
        )

    iface_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    iface_names = [n for n in iface_names if n not in spec.properties]
    if not iface_names:
        iface_names = ["IfaceX"]
    for iname in iface_names:
        n_props = draw(st.integers(0, len(prop_names)))
        spec.add_interface(InterfaceDef(iname, tuple(prop_names[:n_props])))

    def binding(iface):
        idef = spec.interfaces[iface]
        props = {}
        for pname in idef.properties:
            if draw(st.booleans()):
                pdef = spec.properties[pname]
                choice = draw(st.integers(0, 3))
                if choice == 0:
                    props[pname] = ANY
                elif choice == 1:
                    props[pname] = EnvRef("Node", pname)
                elif isinstance(pdef.domain, BooleanDomain):
                    props[pname] = draw(st.booleans())
                elif isinstance(pdef.domain, IntervalDomain):
                    props[pname] = draw(st.integers(1, 9))
                else:
                    props[pname] = draw(names)
        return InterfaceBinding(iface, props)

    used = set()
    for _ in range(draw(st.integers(1, 3))):
        cname = draw(names.filter(lambda n: n not in used and n not in spec.components and n not in spec.views))
        used.add(cname)
        spec.add_component(
            ComponentDef(
                cname,
                implements=(binding(draw(st.sampled_from(iface_names))),),
                requires=tuple(
                    binding(draw(st.sampled_from(iface_names)))
                    for _ in range(draw(st.integers(0, 2)))
                ),
                conditions=tuple(
                    [Condition(prop_names[0], ValueRange(1, 5))]
                    if draw(st.booleans()) and isinstance(
                        spec.properties[prop_names[0]].domain, IntervalDomain
                    )
                    else []
                ),
                behaviors=Behaviors(
                    capacity=float(draw(st.integers(1, 10_000))),
                    rrf=draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])),
                    cpu_per_request=float(draw(st.integers(0, 10))),
                ),
            )
        )
    # One view over the first component.
    first = next(iter(spec.components))
    vname = draw(names.filter(lambda n: n not in spec.components and n not in spec.views))
    spec.add_view(
        ViewDef(
            vname,
            represents=first,
            kind=draw(st.sampled_from(["object", "data"])),
            implements=(binding(iface_names[0]),),
        )
    )
    return spec.validate()


@settings(max_examples=40, deadline=None)
@given(specs())
def test_generated_specs_roundtrip_through_xml(spec):
    xml = to_xml(spec)
    spec2 = from_xml(xml)
    assert spec2.name == spec.name
    assert sorted(spec2.properties) == sorted(spec.properties)
    assert sorted(spec2.interfaces) == sorted(spec.interfaces)
    assert sorted(u.name for u in spec2.units()) == sorted(u.name for u in spec.units())
    for unit in spec.units():
        unit2 = spec2.unit(unit.name)
        assert [b.interface for b in unit2.implements] == [b.interface for b in unit.implements]
        assert [dict(b.properties) for b in unit2.implements] == [
            dict(b.properties) for b in unit.implements
        ]
        assert unit2.behaviors == unit.behaviors
    # Serialize-parse-serialize is a fixpoint.
    assert to_xml(spec2) == xml


@settings(max_examples=40, deadline=None)
@given(specs())
def test_generated_specs_match_modes_survive(spec):
    spec2 = from_xml(to_xml(spec))
    for pname, pdef in spec.properties.items():
        assert spec2.properties[pname].match_mode == pdef.match_mode


@settings(max_examples=40, deadline=None)
@given(specs())
def test_generated_specs_roundtrip_through_readable_text(spec):
    from repro.spec import parse_service, to_text

    text = to_text(spec)
    spec2 = parse_service(text)
    assert sorted(spec2.properties) == sorted(spec.properties)
    assert sorted(u.name for u in spec2.units()) == sorted(u.name for u in spec.units())
    for unit in spec.units():
        unit2 = spec2.unit(unit.name)
        assert [dict(b.properties) for b in unit2.implements] == [
            dict(b.properties) for b in unit.implements
        ]
        assert unit2.behaviors == unit.behaviors
    assert to_text(spec2) == text


@settings(max_examples=40, deadline=None)
@given(specs())
def test_text_and_xml_forms_agree(spec):
    from repro.spec import parse_service, to_text

    via_text = parse_service(to_text(spec))
    via_xml = from_xml(to_xml(spec))
    assert to_xml(via_text) == to_xml(via_xml)
