"""Service properties: typed, semantics-free parameters (paper §3.1).

A property declares *only* a value domain — "the framework does not
assume any information about the semantics of a given property"; meaning
lives entirely in the service.  The paper's examples:

- ``Confidentiality``: Boolean, values T/F
- ``TrustLevel``: Interval, range (1, 5)
- ``User``: String

This module provides the domains, the :class:`PropertyDef` declaration,
the ``ANY`` wildcard used by modification rules and requirement matching,
deferred environment references (``Node.TrustLevel`` in the spec text),
and the small value algebra (:func:`satisfies`) the planner uses to match
required against implemented values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Iterable, Optional

__all__ = [
    "ANY",
    "AnyValue",
    "EnvRef",
    "ValueRange",
    "OneOf",
    "Domain",
    "BooleanDomain",
    "IntervalDomain",
    "StringDomain",
    "EnumDomain",
    "NumberDomain",
    "PropertyDef",
    "SpecError",
    "satisfies",
    "parse_domain",
]


class SpecError(ValueError):
    """Malformed service specification."""


class AnyValue:
    """Singleton wildcard: matches every value (spelled ``ANY`` in specs)."""

    _instance: Optional["AnyValue"] = None

    def __new__(cls) -> "AnyValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"

    def __deepcopy__(self, memo: dict) -> "AnyValue":
        return self

    def __reduce__(self):
        return (AnyValue, ())


ANY = AnyValue()


@dataclass(frozen=True)
class EnvRef:
    """A deferred binding to an environment property.

    The paper writes ``Node.TrustLevel`` inside a view's ``Factors`` or
    ``Implements`` clauses: the concrete value is only known once the
    planner tentatively places the component on a node (or linkage on a
    path).  ``scope`` is ``"Node"`` or ``"Link"``.
    """

    scope: str
    prop: str

    def __post_init__(self) -> None:
        if self.scope not in ("Node", "Link"):
            raise SpecError(f"EnvRef scope must be Node or Link, got {self.scope!r}")

    def __repr__(self) -> str:
        return f"{self.scope}.{self.prop}"

    @classmethod
    def parse(cls, text: str) -> "EnvRef":
        scope, _, prop = text.partition(".")
        if not prop:
            raise SpecError(f"malformed environment reference {text!r}")
        return cls(scope, prop)


@dataclass(frozen=True)
class ValueRange:
    """Inclusive integer range, the spec's ``(lo, hi)`` notation."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise SpecError(f"empty range ({self.lo}, {self.hi})")

    def __contains__(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and self.lo <= value <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __repr__(self) -> str:
        return f"({self.lo},{self.hi})"


@dataclass(frozen=True)
class OneOf:
    """Finite value set for requirement matching (e.g. ``{2, 4}``)."""

    values: FrozenSet[Any]

    def __init__(self, values: Iterable[Any]) -> None:
        object.__setattr__(self, "values", frozenset(values))

    def __contains__(self, value: Any) -> bool:
        return value in self.values

    def __repr__(self) -> str:
        inner = ",".join(repr(v) for v in sorted(self.values, key=repr))
        return f"{{{inner}}}"


def satisfies(required: Any, actual: Any, mode: str = "exact") -> bool:
    """Does ``actual`` meet ``required``?

    - ``required is ANY`` matches everything (including absence=None);
    - ``actual is ANY`` matches everything: the provider is transparent /
      unconstrained for this property (e.g. an Encryptor passes whatever
      trust level its downstream provides);
    - a :class:`ValueRange`/:class:`OneOf` requirement matches by
      membership;
    - otherwise per ``mode``: ``"exact"`` equality, ``"at_least"``
      (``actual >= required``), or ``"at_most"`` (``actual <= required``).
      Ordered modes let a spec declare that e.g. ``TrustLevel = 4``
      required is satisfied by an implementation offering level 5 — the
      reading the paper's case study needs.  ``actual is None`` (property
      absent / not vouched for) only satisfies ``ANY``.
    """
    if required is ANY or actual is ANY:
        return True
    if actual is None:
        return False
    if isinstance(required, (ValueRange, OneOf)):
        return actual in required
    if mode == "at_least":
        return actual >= required
    if mode == "at_most":
        return actual <= required
    if mode != "exact":
        raise SpecError(f"unknown match mode {mode!r}")
    return required == actual


class Domain:
    """Base value domain.  Subclasses implement containment + parsing."""

    kind = "abstract"

    def contains(self, value: Any) -> bool:
        raise NotImplementedError

    def parse(self, text: str) -> Any:
        """Parse the spec's textual value form into a Python value."""
        raise NotImplementedError

    def validate(self, value: Any, prop: str = "?") -> Any:
        if value is ANY or isinstance(value, (EnvRef, ValueRange, OneOf)):
            return value
        if not self.contains(value):
            raise SpecError(f"value {value!r} outside domain of property {prop!r} ({self})")
        return value

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class BooleanDomain(Domain):
    """T/F values, stored as Python bools."""

    kind = "Boolean"

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)

    def parse(self, text: str) -> Any:
        t = text.strip()
        if t in ("T", "true", "True"):
            return True
        if t in ("F", "false", "False"):
            return False
        raise SpecError(f"not a Boolean literal: {text!r}")

    def __repr__(self) -> str:
        return "Boolean[T,F]"


class IntervalDomain(Domain):
    """Integers within an inclusive range (paper's ``Interval`` type)."""

    kind = "Interval"

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise SpecError(f"empty interval ({lo}, {hi})")
        self.lo = lo
        self.hi = hi

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and self.lo <= value <= self.hi
        )

    def parse(self, text: str) -> Any:
        try:
            return int(text.strip())
        except ValueError:
            raise SpecError(f"not an integer literal: {text!r}") from None

    def __repr__(self) -> str:
        return f"Interval({self.lo},{self.hi})"


class NumberDomain(Domain):
    """Unbounded reals — used by QoS-style properties (frame rate...)."""

    kind = "Number"

    def contains(self, value: Any) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def parse(self, text: str) -> Any:
        try:
            return float(text.strip())
        except ValueError:
            raise SpecError(f"not a number literal: {text!r}") from None

    def __repr__(self) -> str:
        return "Number"


class StringDomain(Domain):
    """Arbitrary strings (paper's ``User`` property)."""

    kind = "String"

    def contains(self, value: Any) -> bool:
        return isinstance(value, str)

    def parse(self, text: str) -> Any:
        return text.strip()

    def __repr__(self) -> str:
        return "String"


class EnumDomain(Domain):
    """A declared finite set of string values."""

    kind = "Enum"

    def __init__(self, values: Iterable[str]) -> None:
        self.values = tuple(values)
        if not self.values:
            raise SpecError("enum domain needs at least one value")
        self._set = frozenset(self.values)

    def contains(self, value: Any) -> bool:
        return value in self._set

    def parse(self, text: str) -> Any:
        t = text.strip()
        if t not in self._set:
            raise SpecError(f"{t!r} not in enum {sorted(self._set)}")
        return t

    def __repr__(self) -> str:
        return f"Enum{sorted(self._set)}"


def parse_domain(type_name: str, values: Optional[str] = None, value_range: Optional[str] = None) -> Domain:
    """Build a domain from the spec's Type/Values/ValueRange fields."""
    t = type_name.strip().lower()
    if t == "boolean":
        return BooleanDomain()
    if t == "interval":
        if not value_range:
            raise SpecError("Interval property needs a ValueRange")
        rng = value_range.strip().lstrip("([").rstrip(")]")
        try:
            lo_s, hi_s = rng.split(",")
            return IntervalDomain(int(lo_s), int(hi_s))
        except ValueError:
            raise SpecError(f"malformed ValueRange {value_range!r}") from None
    if t == "string":
        return StringDomain()
    if t == "number":
        return NumberDomain()
    if t == "enum":
        if not values:
            raise SpecError("Enum property needs Values")
        return EnumDomain(v.strip() for v in values.split(","))
    raise SpecError(f"unknown property type {type_name!r}")


@dataclass
class PropertyDef:
    """Declaration of one service property.

    Only a value domain and a match mode: a property the paper defines
    "as a function of other properties" is not modeled (DESIGN.md §5).
    """

    name: str
    domain: Domain
    description: str = ""
    #: how requirements match implementations: "exact", "at_least", "at_most"
    match_mode: str = "exact"

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("property name must be non-empty")
        if self.match_mode not in ("exact", "at_least", "at_most"):
            raise SpecError(
                f"property {self.name!r}: unknown match mode {self.match_mode!r}"
            )

    def validate(self, value: Any) -> Any:
        return self.domain.validate(value, self.name)

    def __repr__(self) -> str:
        return f"<Property {self.name}: {self.domain!r}>"
