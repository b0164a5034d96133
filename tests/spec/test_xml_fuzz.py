"""Property-based round-trip: random generated specs survive both syntaxes.

A drawn spec either round-trips to an equal spec, or -- when it holds a
value the syntax cannot carry -- its serializer raises ``SpecError``;
it never parses back as something else.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spec import (
    ANY,
    Behaviors,
    BooleanDomain,
    ComponentDef,
    Condition,
    EnumDomain,
    EnvRef,
    InterfaceBinding,
    InterfaceDef,
    IntervalDomain,
    NumberDomain,
    OneOf,
    PropertyDef,
    ServiceSpec,
    SpecError,
    StringDomain,
    ValueRange,
    ViewDef,
    from_xml,
    parse_service,
    to_text,
    to_xml,
)

names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)
descriptions = st.one_of(
    st.just(""),
    st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=16).map(str.strip),
)

#: strings every literal reads as something else (ANY, an EnvRef)
XML_REFUSED = {"ANY", "Node.X"}
#: ... plus the readable form's comment and list separators
TEXT_REFUSED = XML_REFUSED | {"a#b", "a,b"}
COLOURS = ("red", "green", "blue")


@st.composite
def specs(draw):
    spec = ServiceSpec(draw(names))

    def now_and_then(times):
        return all(draw(st.booleans()) for _ in range(times))

    def description():
        # Now and then one the readable form must refuse ('#' starts a comment).
        return "see #3" if now_and_then(4) else draw(descriptions)

    # Properties: one of each domain family, random match modes.
    prop_names = draw(
        st.lists(names, min_size=1, max_size=5, unique=True)
    )
    domains = [
        BooleanDomain(), IntervalDomain(1, 9), StringDomain(), EnumDomain(COLOURS), NumberDomain(),
    ]
    for i, pname in enumerate(prop_names):
        spec.add_property(
            PropertyDef(
                pname,
                domains[i % len(domains)],
                description=description(),
                match_mode=draw(st.sampled_from(["exact", "at_least", "at_most"])),
            )
        )

    def plain(pname):
        domain = spec.properties[pname].domain
        if isinstance(domain, BooleanDomain):
            return draw(st.booleans())
        if isinstance(domain, IntervalDomain):
            return draw(st.integers(1, 9))
        if isinstance(domain, EnumDomain):
            return draw(st.sampled_from(COLOURS))
        if isinstance(domain, NumberDomain):
            return draw(st.floats(-1e6, 1e6, allow_nan=False))
        if now_and_then(3):
            return draw(st.sampled_from(sorted(TEXT_REFUSED)))
        return draw(names)

    def one_of(pname):
        domain = spec.properties[pname].domain
        if isinstance(domain, StringDomain):
            return OneOf(draw(st.lists(names, min_size=1, max_size=3)))
        return OneOf(plain(pname) for _ in range(draw(st.integers(1, 3))))

    def value(pname):
        choice = draw(st.integers(0, 4))
        if choice == 0:
            return ANY
        if choice == 1:
            return EnvRef("Node", pname)
        if choice == 2:
            return one_of(pname)
        return plain(pname)

    iface_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    iface_names = [n for n in iface_names if n not in spec.properties]
    if not iface_names:
        iface_names = ["IfaceX"]
    for iname in iface_names:
        n_props = draw(st.integers(0, len(prop_names)))
        spec.add_interface(InterfaceDef(iname, tuple(prop_names[:n_props])))

    def binding(iface):
        props = {p: value(p) for p in spec.interfaces[iface].properties if draw(st.booleans())}
        return InterfaceBinding(iface, props)

    def condition(pname):
        choice = draw(st.integers(0, 2))
        if choice == 0 and isinstance(spec.properties[pname].domain, IntervalDomain):
            lo = draw(st.integers(1, 9))
            return Condition(pname, ValueRange(lo, draw(st.integers(lo, 9))))
        if choice == 1:
            return Condition(pname, one_of(pname))
        return Condition(pname, plain(pname))

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
                    condition(p) for p in draw(st.lists(st.sampled_from(prop_names), max_size=2))
                ),
                behaviors=Behaviors(
                    capacity=float(draw(st.integers(1, 10_000))),
                    rrf=draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])),
                    cpu_per_request=float(draw(st.integers(0, 10))),
                    bytes_per_request=draw(st.sampled_from([512, 0, 4096])),
                    bytes_per_response=draw(st.sampled_from([2048, 100, 65536])),
                    code_size_bytes=draw(st.sampled_from([200_000, 1, 750_000])),
                ),
                description=description(),
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
            description=description(),
            factors={p: value(p) for p in draw(st.lists(st.sampled_from(prop_names), max_size=2))},
        )
    )
    return spec.validate()


def _values(spec):
    for unit in spec.units():
        for b in unit.implements + unit.requires:
            yield from b.properties.values()
        yield from (c.requirement for c in unit.conditions)
        yield from getattr(unit, "factors", {}).values()


def _refuses(spec, strings):
    flat = (w for v in _values(spec) for w in (v.values if isinstance(v, OneOf) else (v,)))
    return any(isinstance(v, str) and v in strings for v in flat)


def _text_refuses(spec):
    described = list(spec.properties.values()) + spec.units()
    return _refuses(spec, TEXT_REFUSED) or any("#" in d.description for d in described)


def _shape(spec):
    """Everything both syntaxes carry, as comparable plain data."""
    return (
        spec.name,
        [(p.name, repr(p.domain), p.match_mode, p.description) for p in spec.properties.values()],
        [(i.name, i.properties) for i in spec.interfaces.values()],
        [
            (
                u.name,
                [(b.interface, dict(b.properties)) for b in u.implements],
                [(b.interface, dict(b.properties)) for b in u.requires],
                list(u.conditions),
                u.behaviors,
                u.description,
                getattr(u, "represents", None),
                getattr(u, "kind", None),
                dict(getattr(u, "factors", {})),
            )
            for u in spec.units()
        ],
        [(p, spec.rules.rule_for(p).rules) for p in spec.rules.properties()],
    )


def _xml(spec):
    """``to_xml(spec)``, or None after checking a refused draw is refused."""
    if _refuses(spec, XML_REFUSED):
        with pytest.raises(SpecError, match="not serializable"):
            to_xml(spec)
        return None
    return to_xml(spec)


def _text(spec):
    """``to_text(spec)``, or None after checking a refused draw is refused."""
    if _text_refuses(spec):
        with pytest.raises(SpecError):
            to_text(spec)
        return None
    return to_text(spec)


@settings(max_examples=40, deadline=None)
@given(specs())
def test_generated_specs_roundtrip_through_xml(spec):
    xml = _xml(spec)
    if xml is None:
        return
    spec2 = from_xml(xml)
    assert _shape(spec2) == _shape(spec)
    # Serialize-parse-serialize is a fixpoint.
    assert to_xml(spec2) == xml


@settings(max_examples=40, deadline=None)
@given(specs())
def test_generated_specs_match_modes_survive(spec):
    xml = _xml(spec)
    if xml is None:
        return
    spec2 = from_xml(xml)
    for pname, pdef in spec.properties.items():
        assert spec2.properties[pname].match_mode == pdef.match_mode


@settings(max_examples=40, deadline=None)
@given(specs())
def test_generated_specs_roundtrip_through_readable_text(spec):
    text = _text(spec)
    if text is None:
        return
    spec2 = parse_service(text)
    assert _shape(spec2) == _shape(spec)
    assert to_text(spec2) == text


@settings(max_examples=40, deadline=None)
@given(specs())
def test_text_and_xml_forms_agree(spec):
    text = _text(spec)
    if text is None:
        return
    via_text = parse_service(text)
    via_xml = from_xml(to_xml(spec))
    assert to_xml(via_text) == to_xml(via_xml)


def test_undeclared_condition_reads_the_same_from_both_syntaxes():
    """``Zone = {a,b}, Band = (1,4)`` on environment properties the spec
    does not declare: a set and a range from either syntax."""
    text = """
<Property>
Name: Conf
Type: Boolean
Values: T, F
</Property>
<Interface>
Name: I
Properties: Conf
</Interface>
<Component>
Name: C
<Linkages>
<Implements>
Name: I
Properties: Conf = T
</Implements>
</Linkages>
<Conditions>
Properties: Zone = {a,b}, Band = (1,4)
</Conditions>
</Component>
"""
    xml = """
<Service name="service">
  <Property name="Conf" type="Boolean" values="T,F" />
  <Interface name="I" properties="Conf" />
  <Component name="C">
    <Linkages>
      <Implements name="I"><PropertyValue name="Conf" value="T" /></Implements>
    </Linkages>
    <Conditions>
      <Condition property="Zone" op="eq" value="{a,b}" />
      <Condition property="Band" op="eq" value="(1,4)" />
    </Conditions>
  </Component>
</Service>
"""
    expected = [Condition("Zone", OneOf(["a", "b"])), Condition("Band", ValueRange(1, 4))]
    assert list(parse_service(text).unit("C").conditions) == expected
    assert list(from_xml(xml).unit("C").conditions) == expected
    assert from_xml(xml).unit("C").installable_in({"Zone": "a", "Band": 2})


@pytest.mark.parametrize("value", ["ANY", "Node.X", "{x}"])
def test_strings_read_as_other_values_are_refused_by_both_syntaxes(value):
    spec = ServiceSpec("svc")
    spec.add_property(PropertyDef("User", StringDomain()))
    spec.add_interface(InterfaceDef("I", ("User",)))
    spec.add_component(ComponentDef("C", implements=(InterfaceBinding("I", {"User": value}),)))
    for serialize in (to_xml, to_text):
        with pytest.raises(SpecError, match="'User'.*not serializable"):
            serialize(spec)


@pytest.mark.parametrize("value", ["a#b", "a,b"])
def test_readable_form_refuses_its_separators(value):
    spec = ServiceSpec("svc")
    spec.add_property(PropertyDef("User", StringDomain()))
    spec.add_interface(InterfaceDef("I", ("User",)))
    spec.add_component(ComponentDef("C", implements=(InterfaceBinding("I", {"User": value}),)))
    with pytest.raises(SpecError, match="'User'.*readable form"):
        to_text(spec)
    assert from_xml(to_xml(spec)).unit("C").implements[0].properties == {"User": value}
