"""Declarative service specification (paper §3.1).

Properties, interfaces, components, views, installation conditions,
behaviors, and property-modification rules — plus parsers for the
paper's readable text form (:func:`parse_service`) and the XML form
(:func:`from_xml` / :func:`to_xml`), which share one grammar
(:mod:`repro.spec.codec`).
"""

from .components import Behaviors, ComponentDef, Condition, InterfaceBinding, resolve_env_refs
from .dsl import ParseError, parse_service, to_text
from .interfaces import InterfaceDef
from .properties import (
    ANY,
    AnyValue,
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
    satisfies,
)
from .rules import (
    ModificationRule,
    PropertyModificationRule,
    RuleSet,
)
from .service import ServiceSpec
from .views import ViewDef
from .xmlio import from_xml, to_xml

__all__ = [
    "ServiceSpec",
    "SpecError",
    "ParseError",
    "PropertyDef",
    "Domain",
    "BooleanDomain",
    "IntervalDomain",
    "StringDomain",
    "EnumDomain",
    "NumberDomain",
    "parse_domain",
    "ANY",
    "AnyValue",
    "EnvRef",
    "ValueRange",
    "OneOf",
    "satisfies",
    "InterfaceDef",
    "InterfaceBinding",
    "ComponentDef",
    "Condition",
    "Behaviors",
    "resolve_env_refs",
    "ViewDef",
    "ModificationRule",
    "PropertyModificationRule",
    "RuleSet",
    "parse_service",
    "to_text",
    "to_xml",
    "from_xml",
]
