"""Property modification rules (paper §3.3, Figure 4).

The environment transforms implemented interface properties: a
``Confidentiality = T`` interface exposed across an insecure link is no
longer confidential.  The paper models this with rules of the form::

    <PropertyModificationRule>
    Name: Confidentiality
    Rules:
    (In: T)   x (Env: T)   = (Out: T)
    (In: F)   x (Env: ANY) = (Out: F)
    (In: ANY) x (Env: F)   = (Out: F)
    </PropertyModificationRule>

First matching rule wins.  A property with no rule set passes through
the environment unchanged (identity).  ``Env`` values come from the
path environment built by credential translation; an absent ``In`` or
``Env`` value is ``None`` and matches only ``ANY`` patterns — the
conservative reading for security-flavoured properties.

The paper stresses these rules are general, not security-specific: a QoS
property like delivered frame rate can be modified the same way (see the
video-service example), so rule *outputs* may also be computed — pass a
callable instead of a constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from .properties import ANY, SpecError, satisfies

__all__ = ["ModificationRule", "PropertyModificationRule", "RuleSet"]

OutSpec = Union[Any, Callable[[Any, Any], Any]]


@dataclass(frozen=True)
class ModificationRule:
    """One ``(In) x (Env) = (Out)`` row.

    ``in_pattern`` / ``env_pattern`` are matched with the same value
    algebra as requirements (exact / range / set / ANY).  ``out`` is a
    constant, or a callable ``f(in_value, env_value) -> out_value`` for
    computed transformations.
    """

    in_pattern: Any
    env_pattern: Any
    out: OutSpec

    def matches(self, in_value: Any, env_value: Any) -> bool:
        in_ok = (self.in_pattern is ANY) or satisfies(self.in_pattern, in_value)
        env_ok = (self.env_pattern is ANY) or satisfies(self.env_pattern, env_value)
        return in_ok and env_ok

    def output(self, in_value: Any, env_value: Any) -> Any:
        if callable(self.out):
            return self.out(in_value, env_value)
        return self.out

    def __repr__(self) -> str:
        return f"(In: {self.in_pattern!r}) x (Env: {self.env_pattern!r}) = (Out: {self.out!r})"


@dataclass
class PropertyModificationRule:
    """The ordered rule list for one property (Figure 4)."""

    property: str
    rules: Tuple[ModificationRule, ...] = ()

    def __post_init__(self) -> None:
        if not self.property:
            raise SpecError("modification rule needs a property name")
        self.rules = tuple(self.rules)
        if not self.rules:
            raise SpecError(f"modification rule for {self.property!r} has no rows")

    def apply(self, in_value: Any, env_value: Any) -> Any:
        """Transform ``in_value`` through the environment.

        First matching row wins.  If no row matches, the property is not
        vouched for in this environment: return ``None`` (which fails
        any non-ANY requirement).
        """
        for rule in self.rules:
            if rule.matches(in_value, env_value):
                return rule.output(in_value, env_value)
        return None

    def __repr__(self) -> str:
        return f"<PropertyModificationRule {self.property} rows={len(self.rules)}>"


class RuleSet:
    """All modification rules of a service, keyed by property name."""

    def __init__(self, rules: Optional[List[PropertyModificationRule]] = None) -> None:
        self._rules: Dict[str, PropertyModificationRule] = {}
        for r in rules or []:
            self.add(r)

    def add(self, rule: PropertyModificationRule) -> None:
        if rule.property in self._rules:
            raise SpecError(f"duplicate modification rule for {rule.property!r}")
        self._rules[rule.property] = rule

    def rule_for(self, prop: str) -> Optional[PropertyModificationRule]:
        return self._rules.get(prop)

    def properties(self) -> List[str]:
        return list(self._rules)

    def apply(self, prop: str, in_value: Any, env_value: Any) -> Any:
        """Transform one property value through an environment.

        Properties without a rule pass through unchanged — the
        environment is transparent to them.
        """
        rule = self._rules.get(prop)
        if rule is None:
            return in_value
        return rule.apply(in_value, env_value)

    def transform(
        self, implemented: Mapping[str, Any], env: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """Transform a whole implemented-property bag through ``env``."""
        return {
            prop: self.apply(prop, value, env.get(prop))
            for prop, value in implemented.items()
        }

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return f"<RuleSet {sorted(self._rules)}>"

