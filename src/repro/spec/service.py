"""The aggregate service specification and its validation.

A :class:`ServiceSpec` bundles everything §3.1 describes: property
definitions, interfaces, components, views, and property-modification
rules.  :meth:`ServiceSpec.validate` cross-checks the namespace — every
interface a component names must exist, every property an interface or
binding names must be declared, bound values must lie in their domains,
views must represent real components — so planners can assume a
well-formed spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .components import ComponentDef, InterfaceBinding
from .interfaces import InterfaceDef
from .properties import ANY, EnvRef, OneOf, PropertyDef, SpecError, ValueRange
from .rules import PropertyModificationRule, RuleSet
from .views import ViewDef

__all__ = ["ServiceSpec"]

Unit = ComponentDef  # components and views share the ComponentDef surface


@dataclass
class ServiceSpec:
    """Declarative description of one partitionable service."""

    name: str
    properties: Dict[str, PropertyDef] = field(default_factory=dict)
    interfaces: Dict[str, InterfaceDef] = field(default_factory=dict)
    components: Dict[str, ComponentDef] = field(default_factory=dict)
    views: Dict[str, ViewDef] = field(default_factory=dict)
    rules: RuleSet = field(default_factory=RuleSet)
    description: str = ""

    # -- construction helpers ----------------------------------------------
    def add_property(self, prop: PropertyDef) -> PropertyDef:
        if prop.name in self.properties:
            raise SpecError(f"duplicate property {prop.name!r}")
        self.properties[prop.name] = prop
        return prop

    def add_interface(self, iface: InterfaceDef) -> InterfaceDef:
        if iface.name in self.interfaces:
            raise SpecError(f"duplicate interface {iface.name!r}")
        self.interfaces[iface.name] = iface
        return iface

    def add_component(self, comp: ComponentDef) -> ComponentDef:
        if isinstance(comp, ViewDef):
            return self.add_view(comp)
        if comp.name in self.components or comp.name in self.views:
            raise SpecError(f"duplicate component {comp.name!r}")
        self.components[comp.name] = comp
        return comp

    def add_view(self, view: ViewDef) -> ViewDef:
        if view.name in self.components or view.name in self.views:
            raise SpecError(f"duplicate view {view.name!r}")
        self.views[view.name] = view
        return view

    def add_rule(self, rule: PropertyModificationRule) -> PropertyModificationRule:
        self.rules.add(rule)
        return rule

    # -- queries --------------------------------------------------------------
    def unit(self, name: str) -> Unit:
        """Component or view by name."""
        if name in self.components:
            return self.components[name]
        if name in self.views:
            return self.views[name]
        raise SpecError(f"service {self.name!r} has no component/view {name!r}")

    def units(self) -> List[Unit]:
        """All deployable units (components then views), stable order."""
        return list(self.components.values()) + list(self.views.values())

    def implementers_of(self, interface: str) -> List[Unit]:
        """Units implementing ``interface`` (string-level match)."""
        return [u for u in self.units() if u.implements_interface(interface)]

    def interface(self, name: str) -> InterfaceDef:
        try:
            return self.interfaces[name]
        except KeyError:
            raise SpecError(f"service {self.name!r} has no interface {name!r}") from None

    # -- validation --------------------------------------------------------
    def validate(self) -> "ServiceSpec":
        """Cross-check the whole namespace; returns self for chaining."""
        if not self.name:
            raise SpecError("service name must be non-empty")
        for iface in self.interfaces.values():
            for prop in iface.properties:
                if prop not in self.properties:
                    raise SpecError(
                        f"interface {iface.name!r} references unknown property {prop!r}"
                    )
        for unit in self.units():
            self._validate_unit(unit)
        for view in self.views.values():
            if view.represents not in self.components:
                raise SpecError(
                    f"view {view.name!r} represents unknown component {view.represents!r}"
                )
            for prop in view.factors:
                if prop not in self.properties:
                    raise SpecError(
                        f"view {view.name!r} factors unknown property {prop!r}"
                    )
        for prop in self.rules.properties():
            if prop not in self.properties:
                raise SpecError(f"modification rule for unknown property {prop!r}")
        return self

    def _validate_unit(self, unit: Unit) -> None:
        for binding in tuple(unit.implements) + tuple(unit.requires):
            iface = self.interfaces.get(binding.interface)
            if iface is None:
                raise SpecError(
                    f"{unit.name!r} references unknown interface {binding.interface!r}"
                )
            for prop, value in binding.properties.items():
                if prop not in self.properties:
                    raise SpecError(
                        f"{unit.name!r} binds unknown property {prop!r} "
                        f"on interface {binding.interface!r}"
                    )
                if not iface.has_property(prop):
                    raise SpecError(
                        f"interface {binding.interface!r} does not carry property "
                        f"{prop!r} (bound by {unit.name!r})"
                    )
                self._validate_value(unit.name, prop, value)
        for cond in unit.conditions:
            if cond.prop in self.properties:
                self._validate_value(unit.name, cond.prop, cond.requirement)
            # Conditions may also reference raw environment/request keys
            # (e.g. User before it is declared); undeclared names are
            # permitted there since the environment namespace is open.

    def _validate_value(self, owner: str, prop: str, value: Any) -> None:
        pdef = self.properties[prop]
        if value is ANY or isinstance(value, EnvRef):
            return
        if isinstance(value, ValueRange):
            return  # domain-checked at match time
        if isinstance(value, OneOf):
            for v in value.values:
                pdef.validate(v)
            return
        try:
            pdef.validate(value)
        except SpecError as exc:
            raise SpecError(f"in {owner!r}: {exc}") from None

    def __repr__(self) -> str:
        return (
            f"<ServiceSpec {self.name!r} props={len(self.properties)} "
            f"ifaces={len(self.interfaces)} comps={len(self.components)} "
            f"views={len(self.views)} rules={len(self.rules)}>"
        )
