"""The spec grammar both syntaxes share (paper §3.1).

The paper's service specifications "use an XML format; however, the
examples in this paper are written in a different form to improve
readability".  The two are spellings of one content, so everything below
the syntax lives here once: value literals (``ANY``, ``Node.X``,
``T``/``F``, ``(lo,hi)``, ``{a,b}``, numbers, strings), memberships,
domain fields, the behaviour table, match-mode names, and the builders
that turn literal texts into properties, interfaces, components, views
and rules.  :mod:`repro.spec.dsl` maps the readable form's blocks onto
these and :mod:`repro.spec.xmlio` maps the XML elements; neither reads
or writes a literal itself.
"""

from __future__ import annotations

import re
from dataclasses import fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .components import Behaviors, ComponentDef, Condition, InterfaceBinding
from .interfaces import InterfaceDef
from .properties import (
    ANY,
    BooleanDomain,
    Domain,
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
)
from .rules import ModificationRule, PropertyModificationRule
from .service import ServiceSpec
from .views import ViewDef

#: ``(property, literal)`` pairs: a binding's, or a view's factors
Assignments = Iterable[Tuple[str, str]]


# -- value literals ------------------------------------------------------------

_SPLIT_MARKS = re.compile(r"[(){}\[\],]")


def split_top_level(text: str) -> List[str]:
    """Split on ``,`` outside parentheses/braces/brackets."""
    parts: List[str] = []
    depth = 0
    start = 0
    for m in _SPLIT_MARKS.finditer(text):
        ch = m.group()
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif depth == 0:
            parts.append(text[start:m.start()].strip())
            start = m.end()
    tail = text[start:].strip()
    if tail:
        parts.append(tail)
    return parts


def parse_value(text: str, domain: Optional[Domain] = None) -> Any:
    """Read one literal for a property of ``domain``, or for an undeclared
    (environment) property when ``domain`` is None."""
    t = text.strip()
    first = t[:1]
    if t == "ANY":
        return ANY
    if first in "NL" and t.startswith(("Node.", "Link.")):
        return EnvRef.parse(t)
    if first == "{" and t.endswith("}"):
        return OneOf(parse_value(v, domain) for v in split_top_level(t[1:-1]))
    if first == "(" and t.endswith(")"):
        bounds = split_top_level(t[1:-1])
        if len(bounds) == 2:
            try:
                return ValueRange(int(bounds[0]), int(bounds[1]))
            except ValueError:
                pass  # not a range literal
    if domain is not None:
        return domain.parse(t)
    if t in ("T", "F"):
        return t == "T"
    for conv in (int, float):
        try:
            return conv(t)
        except ValueError:
            continue
    return t


def parse_membership(text: str, domain: Optional[Domain] = None) -> Any:
    """Read the right-hand side of ``prop in (lo,hi)`` / ``prop in {a,b}``."""
    value = parse_value(text, domain)
    if not is_membership(value):
        raise SpecError(f"malformed membership expression {text!r}")
    return value


def is_membership(value: Any) -> bool:
    """Is a condition on ``value`` written ``in`` rather than ``=``?"""
    return isinstance(value, (ValueRange, OneOf))


def _literal(value: Any) -> str:
    if value is ANY:
        return "ANY"
    if isinstance(value, EnvRef):
        return f"{value.scope}.{value.prop}"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, ValueRange):
        return f"({value.lo},{value.hi})"
    if isinstance(value, OneOf):
        return "{" + ",".join(_literal(v) for v in sorted(value.values, key=repr)) + "}"
    return str(value)


def _domain(spec: ServiceSpec, prop: str) -> Optional[Domain]:
    pdef = spec.properties.get(prop)
    return pdef.domain if pdef is not None else None


def format_value(spec: ServiceSpec, prop: str, value: Any) -> str:
    """Write one literal of ``prop``; a value its literal would not read
    back as (the string ``"ANY"``, say) raises :class:`SpecError`."""
    text = _literal(value)
    try:
        same = parse_value(text, _domain(spec, prop)) == value
    except SpecError:
        same = False
    if not same:
        raise SpecError(
            f"property {prop!r}: {value!r} would read back from {text!r} as "
            f"another value; not serializable"
        )
    return text


# -- domains, match modes, behaviours ---------------------------------------------

def domain_fields(domain: Domain) -> Tuple[str, Tuple[str, ...], Optional[str]]:
    """``(type, values, value range)`` of a domain: what :func:`parse_domain` reads."""
    if isinstance(domain, BooleanDomain):
        return "Boolean", ("T", "F"), None
    if isinstance(domain, IntervalDomain):
        return "Interval", (), f"({domain.lo},{domain.hi})"
    if isinstance(domain, StringDomain):
        return "String", (), None
    if isinstance(domain, NumberDomain):
        return "Number", (), None
    if isinstance(domain, EnumDomain):
        return "Enum", domain.values, None
    raise SpecError(f"cannot serialize domain {domain!r}")


#: match mode -> its readable spelling; XML spells the mode itself
MATCH_MODES = {"exact": "Exact", "at_least": "AtLeast", "at_most": "AtMost"}
_MATCH_READ = {
    **{mode: mode for mode in MATCH_MODES},
    **{text.lower(): mode for mode, text in MATCH_MODES.items()},
}

#: Behaviors field -> (readable key, XML attribute, type), in the readable
#: form's order; XML attributes follow the Behaviors field order
BEHAVIORS = {
    "capacity": ("Capacity", "capacity", float),
    "rrf": ("RRF", "rrf", float),
    "cpu_per_request": ("CpuPerRequest", "cpuPerRequest", float),
    "request_rate": ("RequestRate", "requestRate", float),
    "bytes_per_request": ("BytesPerRequest", "bytesPerRequest", int),
    "bytes_per_response": ("BytesPerResponse", "bytesPerResponse", int),
    "code_size_bytes": ("CodeSize", "codeSize", int),
}
_DEFAULT_BEHAVIORS = Behaviors()


def behavior_texts(b: Behaviors) -> Dict[str, str]:
    """Field -> text of every metric off its default, in field order.

    Floats print in the short ``%g`` form (ints without a trailing
    ``.0``) when it reads back as the same value, and as ``repr`` when
    ``%g``'s six significant digits would round it, so every value
    round-trips exactly and serialize-parse-serialize is a fixpoint.
    """
    out: Dict[str, str] = {}
    for f in fields(Behaviors):
        value = getattr(b, f.name)
        if value != getattr(_DEFAULT_BEHAVIORS, f.name):
            if BEHAVIORS[f.name][2] is float:
                text = f"{value:g}"
                out[f.name] = text if float(text) == value else repr(value)
            else:
                out[f.name] = str(value)
    return out


def _read_behaviors(texts: Mapping[str, Optional[str]]) -> Behaviors:
    kwargs: Dict[str, Any] = {}
    for name, raw in texts.items():
        if raw is not None:
            try:
                kwargs[name] = BEHAVIORS[name][2](raw)
            except ValueError:
                raise SpecError(f"malformed behavior {name}: {raw!r}") from None
    return Behaviors(**kwargs)


# -- building a spec from literal texts -----------------------------------------

def add_property(
    spec: ServiceSpec,
    name: str,
    type_name: str,
    values: Optional[str] = None,
    value_range: Optional[str] = None,
    match: str = "exact",
    description: str = "",
) -> None:
    """Declare a property from its Type/Values/ValueRange/Match fields."""
    mode = _MATCH_READ.get(match.strip().lower())
    if mode is None:
        raise SpecError(f"property {name!r}: unknown match mode {match!r}")
    domain = parse_domain(type_name, values=values, value_range=value_range)
    spec.add_property(PropertyDef(name, domain, description=description, match_mode=mode))


def add_interface(spec: ServiceSpec, name: str, properties: str) -> None:
    """Declare an interface carrying the ``,``-separated ``properties``."""
    spec.add_interface(InterfaceDef(name, tuple(p for p in split_top_level(properties) if p)))


def _values(spec: ServiceSpec, pairs: Assignments) -> Dict[str, Any]:
    return {prop: parse_value(text, _domain(spec, prop)) for prop, text in pairs}


def add_unit(
    spec: ServiceSpec,
    name: str,
    *,
    implements: Iterable[Tuple[str, Assignments]],
    requires: Iterable[Tuple[str, Assignments]],
    conditions: Iterable[Tuple[str, bool, str]],
    behaviors: Mapping[str, Optional[str]],
    description: str,
    represents: Optional[str] = None,
    kind: str = "data",
    factors: Assignments = (),
) -> None:
    """Build a component -- a view when ``represents`` is given -- and add it.

    Bindings are ``(interface, assignments)``; conditions are
    ``(property, is_membership, literal)``; behaviours map a
    :data:`BEHAVIORS` field to its text, ``None`` when absent.
    """
    unit = dict(
        name=name,
        implements=tuple(InterfaceBinding(i, _values(spec, a)) for i, a in implements),
        requires=tuple(InterfaceBinding(i, _values(spec, a)) for i, a in requires),
        conditions=tuple(
            Condition(prop, (parse_membership if member else parse_value)(text, _domain(spec, prop)))
            for prop, member, text in conditions
        ),
        behaviors=_read_behaviors(behaviors),
        description=description,
    )
    if represents is None:
        spec.add_component(ComponentDef(**unit))
    else:
        spec.add_view(
            ViewDef(**unit, represents=represents, kind=kind, factors=_values(spec, factors))
        )


def add_rule(spec: ServiceSpec, prop: str, rows: Iterable[Tuple[str, str, str]]) -> None:
    """Add ``prop``'s modification rule from ``(in, env, out)`` literal rows."""
    domain = _domain(spec, prop)
    spec.add_rule(
        PropertyModificationRule(
            prop,
            tuple(
                ModificationRule(*(parse_value(text, domain) for text in row))
                for row in rows
            ),
        )
    )


def rule_texts(spec: ServiceSpec, prop: str) -> List[Tuple[str, str, str]]:
    """``(in, env, out)`` literals of ``prop``'s rule rows; a computed
    output raises :class:`SpecError`."""
    rule = spec.rules.rule_for(prop)
    assert rule is not None
    rows = []
    for row in rule.rules:
        if callable(row.out):
            raise SpecError(f"rule for {prop!r} has a computed output; not serializable")
        rows.append(
            tuple(format_value(spec, prop, v) for v in (row.in_pattern, row.env_pattern, row.out))
        )
    return rows
