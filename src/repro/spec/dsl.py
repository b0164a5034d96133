"""Parser for the paper's readable specification form (Figure 2).

The paper's service specifications "use an XML format; however, the
examples in this paper are written in a different form to improve
readability".  This module parses that readable form, e.g.::

    <Property>
    Name: TrustLevel
    Type: Interval
    ValueRange: (1,5)
    </Property>

    <Component>
    Name: MailClient
    <Linkages>
    <Implements>
    Name: ClientInterface
    Properties: Confidentiality = F, TrustLevel = 4
    </Implements>
    <Requires>
    Name: ServerInterface
    Properties: Confidentiality = T, TrustLevel = 4
    </Requires>
    </Linkages>
    <Conditions>
    Properties: User = Alice
    </Conditions>
    </Component>

    <PropertyModificationRule>
    Name: Confidentiality
    Rules:
    (In: T) x (Env: T) = (Out: T)
    (In: F) x (Env: ANY) = (Out: F)
    (In: ANY) x (Env: F) = (Out: F)
    </PropertyModificationRule>

Conditions accept ``=``, ``in`` and the paper's ``∈`` for range/set
membership.  This module only tokenizes blocks and lays out lines; the
literals and the objects built from them come from
:mod:`repro.spec.codec`, which the XML form (:mod:`repro.spec.xmlio`)
shares, so both produce identical
:class:`~repro.spec.service.ServiceSpec` objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .codec import (
    BEHAVIORS,
    MATCH_MODES,
    add_interface,
    add_property,
    add_rule,
    add_unit,
    behavior_texts,
    domain_fields,
    format_value,
    is_membership,
    rule_texts,
    split_top_level,
)
from .properties import SpecError
from .service import ServiceSpec
from .views import ViewDef

__all__ = ["parse_service", "to_text", "ParseError"]


class ParseError(SpecError):
    """Malformed readable-form specification text."""


_TAG_OPEN = re.compile(r"^<([A-Za-z]+)>$")
_TAG_CLOSE = re.compile(r"^</([A-Za-z]+)>$")
#: a rule-row literal: anything up to the ``)`` closing its cell, with
#: at most one level of parentheses inside (a range such as ``(1,3)``)
_ROW_LITERAL = r"(?:[^()]|\([^()]*\))*"
_RULE_ROW = re.compile(
    rf"^\(In:\s*(?P<in>{_ROW_LITERAL})\)\s*[x×*]\s*\(Env:\s*(?P<env>{_ROW_LITERAL})\)"
    rf"\s*=\s*\(Out:\s*(?P<out>{_ROW_LITERAL})\)$"
)
_ROW_CELL = re.compile(_ROW_LITERAL)


@dataclass
class Block:
    """One parsed ``<Tag> ... </Tag>`` region."""

    tag: str
    fields: Dict[str, List[str]] = field(default_factory=dict)
    children: List["Block"] = field(default_factory=list)
    #: raw non-field lines (rule rows live here)
    raw_lines: List[str] = field(default_factory=list)

    def one(self, key: str, default: Optional[str] = None) -> Optional[str]:
        vals = self.fields.get(key)
        if not vals:
            if default is not None:
                return default
            return None
        if len(vals) > 1:
            raise ParseError(f"<{self.tag}> has multiple {key!r} fields")
        return vals[0]

    def require(self, key: str) -> str:
        val = self.one(key)
        if val is None:
            raise ParseError(f"<{self.tag}> is missing required field {key!r}")
        return val

    def child_blocks(self, tag: str) -> List["Block"]:
        return [c for c in self.children if c.tag == tag]


def _logical_lines(text: str) -> List[str]:
    """Strip comments/blank lines and join ','-continued lines."""
    out: List[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if out and out[-1].endswith(","):
            out[-1] += " " + line
        else:
            out.append(line)
    return out


def _parse_blocks(lines: List[str], pos: int, closing: Optional[str]) -> Tuple[List[Block], int]:
    blocks: List[Block] = []
    while pos < len(lines):
        line = lines[pos]
        m_close = _TAG_CLOSE.match(line)
        if m_close:
            if closing is None or m_close.group(1) != closing:
                raise ParseError(f"unexpected closing tag {line!r}")
            return blocks, pos + 1
        m_open = _TAG_OPEN.match(line)
        if not m_open:
            raise ParseError(f"expected a <Tag>, got {line!r}")
        tag = m_open.group(1)
        block = Block(tag)
        pos += 1
        while pos < len(lines):
            line = lines[pos]
            if line[0] == "<":
                m = _TAG_CLOSE.match(line)
                if m:
                    if m.group(1) != tag:
                        raise ParseError(
                            f"mismatched closing tag {line!r} inside <{tag}>"
                        )
                    pos += 1
                    break
                if _TAG_OPEN.match(line):
                    children, pos = _parse_blocks(lines, pos, closing=None)
                    # _parse_blocks with closing=None parses exactly one block
                    block.children.extend(children)
                    continue
            if ":" in line and not line.startswith("("):
                key, _, value = line.partition(":")
                block.fields.setdefault(key.strip(), []).append(value.strip())
            else:
                block.raw_lines.append(line)
            pos += 1
        else:
            raise ParseError(f"unterminated <{tag}>")
        blocks.append(block)
        if closing is None:
            return blocks, pos
    if closing is not None:
        raise ParseError(f"missing </{closing}>")
    return blocks, pos


# The paper's PDF renders ∈ as '2' in one place; accept it.
_CONDITION = re.compile(r"^(?P<key>[\w.]+)\s*(?P<op>=|in|∈|2)\s*(?P<val>.+)$")


def _assignments(text: str) -> List[Tuple[str, str]]:
    """``Confidentiality = T, TrustLevel = 4`` -> (property, literal) pairs.

    A bare property name is required with any generated value (``ANY``).
    """
    pairs = []
    for part in split_top_level(text):
        if part:
            key, eq, val = part.partition("=")
            pairs.append((key.strip(), val.strip() if eq else "ANY"))
    return pairs


def _conditions(text: str) -> Iterator[Tuple[str, bool, str]]:
    for part in split_top_level(text):
        if not part:
            continue
        m = _CONDITION.match(part)
        if not m:
            raise ParseError(f"malformed condition {part!r}")
        key = m.group("key")
        # `Node.TrustLevel` in a condition addresses the node
        # environment, which is where conditions are evaluated anyway.
        if key.startswith("Node."):
            key = key[len("Node."):]
        yield key, m.group("op") != "=", m.group("val")


def _properties(b: Block) -> str:
    return b.one("Properties", "") or ""


def _bindings(linkages: List[Block], tag: str) -> List[Tuple[str, List[Tuple[str, str]]]]:
    return [
        (blk.require("Name"), _assignments(_properties(blk)))
        for lk in linkages
        for blk in lk.child_blocks(tag)
    ]


def _unit_block(spec: ServiceSpec, b: Block) -> None:
    linkages = b.child_blocks("Linkages")
    add_unit(
        spec,
        b.require("Name"),
        implements=_bindings(linkages, "Implements"),
        requires=_bindings(linkages, "Requires"),
        conditions=[c for blk in b.child_blocks("Conditions") for c in _conditions(_properties(blk))],
        behaviors={
            name: blk.one(key)
            for blk in b.child_blocks("Behaviors")[:1]
            for name, (key, _attr, _type) in BEHAVIORS.items()
        },
        description=b.one("Description", "") or "",
        represents=b.require("Represents") if b.tag == "View" else None,
        kind=b.one("Kind", "data") or "data",
        factors=[pair for fb in b.child_blocks("Factors") for pair in _assignments(_properties(fb))],
    )


def _rule_rows(b: Block) -> Iterator[Tuple[str, str, str]]:
    for raw in b.raw_lines:
        m = _RULE_ROW.match(raw)
        if not m:
            raise ParseError(f"malformed rule row {raw!r}")
        yield m.group("in"), m.group("env"), m.group("out")


_PASS1 = ("Property",)
_PASS2 = ("Interface",)
_PASS3 = ("Component", "View", "PropertyModificationRule")


def parse_service(text: str, name: str = "service") -> ServiceSpec:
    """Parse readable-form text into a validated :class:`ServiceSpec`.

    A top-level ``<Service>`` wrapper with ``Name:`` and ``Description:``
    fields is optional; without one, ``name`` is used.
    """
    lines = _logical_lines(text)
    blocks, pos = [], 0
    while pos < len(lines):
        parsed, pos = _parse_blocks(lines, pos, closing=None)
        blocks.extend(parsed)

    description = ""
    if len(blocks) == 1 and blocks[0].tag == "Service":
        svc = blocks[0]
        name = svc.one("Name", name) or name
        description = svc.one("Description", "") or ""
        blocks = svc.children

    spec = ServiceSpec(name=name, description=description)
    handlers = {
        "Property": lambda b: add_property(
            spec,
            b.require("Name"),
            b.require("Type"),
            values=b.one("Values"),
            value_range=b.one("ValueRange"),
            match=b.one("Match", "exact") or "exact",
            description=b.one("Description", "") or "",
        ),
        "Interface": lambda b: add_interface(spec, b.require("Name"), _properties(b)),
        "Component": lambda b: _unit_block(spec, b),
        "View": lambda b: _unit_block(spec, b),
        "PropertyModificationRule": lambda b: add_rule(spec, b.require("Name"), _rule_rows(b)),
    }
    for wanted in (_PASS1, _PASS2, _PASS3):
        for b in blocks:
            if b.tag in wanted:
                handlers[b.tag](b)
    unknown = [b.tag for b in blocks if b.tag not in handlers]
    if unknown:
        raise ParseError(f"unknown top-level blocks: {unknown}")
    return spec.validate()


# -- serialization back to the readable form ---------------------------------

def _readable(prop: str, text: str, in_row: bool = False) -> str:
    """Refuse a literal the readable form would cut short.

    ``#`` starts a comment and a line break ends the entry; inside a rule
    row an unmatched ``)`` closes the cell, so the literal may hold one
    level of balanced parentheses, and elsewhere it must split back out
    of a ``,``-separated list.
    """
    if in_row:
        fits = _ROW_CELL.fullmatch(text) is not None
    else:
        fits = split_top_level(text + ",x") == [text, "x"]
    if "#" in text or len(text.splitlines()) > 1 or not fits:
        raise SpecError(f"property {prop!r}: {text!r} cannot be written in the readable form")
    return text


def _literal(spec: ServiceSpec, prop: str, value: Any) -> str:
    return _readable(prop, format_value(spec, prop, value))


def _field(key: str, text: str) -> str:
    if "#" in text or len(text.splitlines()) > 1 or text != text.strip() or text.endswith(","):
        raise SpecError(f"{key} {text!r} cannot be written in the readable form")
    return f"{key}: {text}"


def _assigns(spec: ServiceSpec, props: Dict[str, Any]) -> str:
    return "Properties: " + ", ".join(
        f"{k} = {_literal(spec, k, v)}" for k, v in props.items()
    )


def to_text(spec: ServiceSpec) -> str:
    """Serialize a spec into the paper's readable form.

    Inverse of :func:`parse_service` for every construct that form can
    express.  Rules with *computed* outputs (Python callables), and
    values whose literal would not read back as themselves, raise
    :class:`SpecError` as in the XML serializer; so do values and
    descriptions holding the form's comment (``#``), list (``,``) or
    line separators.
    """
    lines: List[str] = ["<Service>", f"Name: {spec.name}"]
    if spec.description:
        lines.append(_field("Description", spec.description))
    lines.append("")

    def described(tag: str, name: str, description: str) -> None:
        lines.extend([f"<{tag}>", f"Name: {name}"])
        if description:
            lines.append(_field("Description", description))

    for prop in spec.properties.values():
        described("Property", prop.name, prop.description)
        type_name, values, value_range = domain_fields(prop.domain)
        lines.append(f"Type: {type_name}")
        if values:
            lines.append("Values: " + ", ".join(values))
        if value_range:
            lines.append(f"ValueRange: {value_range}")
        if prop.match_mode != "exact":
            lines.append(f"Match: {MATCH_MODES[prop.match_mode]}")
        lines.extend(["</Property>", ""])

    for iface in spec.interfaces.values():
        lines.extend(["<Interface>", f"Name: {iface.name}"])
        if iface.properties:
            lines.append("Properties: " + ", ".join(iface.properties))
        lines.extend(["</Interface>", ""])

    for unit in spec.units():
        tag = "View" if isinstance(unit, ViewDef) else "Component"
        described(tag, unit.name, unit.description)
        if isinstance(unit, ViewDef):
            lines.append(f"Represents: {unit.represents}")
            lines.append(f"Kind: {unit.kind}")
            if unit.factors:
                lines.extend(["<Factors>", _assigns(spec, unit.factors), "</Factors>"])
        if unit.implements or unit.requires:
            lines.append("<Linkages>")
            for btag, bindings in (("Implements", unit.implements), ("Requires", unit.requires)):
                for b in bindings:
                    lines.extend([f"<{btag}>", f"Name: {b.interface}"])
                    if b.properties:
                        lines.append(_assigns(spec, b.properties))
                    lines.append(f"</{btag}>")
            lines.append("</Linkages>")
        if unit.conditions:
            conds = ", ".join(
                f"{c.prop} {'in' if is_membership(c.requirement) else '='} "
                f"{_literal(spec, c.prop, c.requirement)}"
                for c in unit.conditions
            )
            lines.extend(["<Conditions>", f"Properties: {conds}", "</Conditions>"])
        texts = behavior_texts(unit.behaviors)
        if texts:
            lines.append("<Behaviors>")
            lines.extend(
                f"{key}: {texts[name]}" for name, (key, _a, _t) in BEHAVIORS.items() if name in texts
            )
            lines.append("</Behaviors>")
        lines.extend([f"</{tag}>", ""])

    for prop_name in spec.rules.properties():
        lines.extend(["<PropertyModificationRule>", f"Name: {prop_name}", "Rules:"])
        for row in rule_texts(spec, prop_name):
            in_text, env_text, out_text = (_readable(prop_name, t, in_row=True) for t in row)
            lines.append(f"(In: {in_text}) x (Env: {env_text}) = (Out: {out_text})")
        lines.extend(["</PropertyModificationRule>", ""])

    lines.append("</Service>")
    return "\n".join(lines)
