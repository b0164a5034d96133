"""Component declarations: linkages, conditions, behaviors (paper §3.1).

A component ``Implements`` interfaces (with the property values it
generates) and ``Requires`` interfaces (with the property values it
demands of the server it links to).  ``Conditions`` gate installation on
the node environment; ``Behaviors`` quantify resource demands for the
planner's load model (condition 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from .properties import ANY, EnvRef, OneOf, SpecError, ValueRange, satisfies

__all__ = [
    "InterfaceBinding",
    "Condition",
    "Behaviors",
    "ComponentDef",
    "resolve_env_refs",
]


def resolve_env_refs(props: Mapping[str, Any], node_env: Mapping[str, Any]) -> Dict[str, Any]:
    """Replace ``Node.X`` references with concrete environment values.

    Unresolvable references become ``None`` (property not vouched for),
    which fails any non-ANY requirement — the safe default.
    """
    out: Dict[str, Any] = {}
    for name, value in props.items():
        if isinstance(value, EnvRef):
            out[name] = node_env.get(value.prop)
        else:
            out[name] = value
    return out


@dataclass(frozen=True)
class InterfaceBinding:
    """An interface name plus property bindings.

    In an ``Implements`` clause the bindings are the values the component
    *generates* (possibly deferred via :class:`EnvRef`); in a
    ``Requires`` clause they are the values it *demands* (possibly
    relaxed via ``ANY``, a range, or a set).
    """

    interface: str
    properties: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.interface:
            raise SpecError("interface binding needs an interface name")
        object.__setattr__(self, "properties", dict(self.properties))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.properties.items()))
        return f"<{self.interface} {inner}>"


@dataclass(frozen=True)
class Condition:
    """One installation condition: a property must satisfy a requirement.

    Examples from the paper: ``User = Alice``; ``Node.TrustLevel ∈ (1,3)``.
    The subject property is looked up in the *combined* environment the
    planner builds for a candidate node (credential-translated node
    properties merged with per-request context such as the client's
    ``User``).
    """

    prop: str
    requirement: Any  # exact value, ValueRange, OneOf, or ANY

    def evaluate(self, env: Mapping[str, Any]) -> bool:
        return satisfies(self.requirement, env.get(self.prop))

    def __repr__(self) -> str:
        return f"<Condition {self.prop} ~ {self.requirement!r}>"


@dataclass(frozen=True)
class Behaviors:
    """Resource-demand metrics (paper §3.1 'Behaviors').

    The four metrics the paper calls out, plus capacity:

    - ``cpu_per_request`` — work units consumed serving one request;
    - ``request_rate`` — requests/second this component *emits* when it
      is the workload source (clients);
    - ``bytes_per_request`` / ``bytes_per_response`` — average message
      sizes on the component's required linkages;
    - ``rrf`` — Request Reduction Factor: requests issued downstream per
      request served (a cache with 80% hit rate has RRF 0.2);
    - ``capacity`` — max requests/second the component can serve.
    """

    capacity: float = float("inf")
    cpu_per_request: float = 1.0
    request_rate: float = 0.0
    bytes_per_request: int = 512
    bytes_per_response: int = 2048
    rrf: float = 1.0
    #: size of the component's code bundle, for deployment-cost modeling
    code_size_bytes: int = 200_000

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SpecError("capacity must be positive")
        if self.cpu_per_request < 0 or self.request_rate < 0:
            raise SpecError("negative behavior metric")
        if not 0.0 <= self.rrf:
            raise SpecError(f"rrf must be non-negative, got {self.rrf}")
        if self.bytes_per_request < 0 or self.bytes_per_response < 0:
            raise SpecError("negative message size")
        if self.code_size_bytes < 0:
            raise SpecError("negative code size")


@dataclass
class ComponentDef:
    """One deployable component of a service.

    ``implements`` / ``requires`` express the linkage constraints;
    a 'client' component C1 can connect to a 'server' C2 only if C2
    implements an interface C1 requires, with compatible properties.
    """

    name: str
    implements: Tuple[InterfaceBinding, ...] = ()
    requires: Tuple[InterfaceBinding, ...] = ()
    conditions: Tuple[Condition, ...] = ()
    behaviors: Behaviors = field(default_factory=Behaviors)
    description: str = ""
    #: the properties ``conditions`` read, sorted: all that condition 1
    #: reads of a request context
    condition_props: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("component name must be non-empty")
        self.implements = tuple(self.implements)
        self.requires = tuple(self.requires)
        self.conditions = tuple(self.conditions)
        self.condition_props = tuple(sorted({c.prop for c in self.conditions}))

    # -- queries used by the planner --------------------------------------
    @property
    def is_view(self) -> bool:
        return False

    @property
    def is_terminal(self) -> bool:
        """True if the component requires nothing (linkage recursion stops)."""
        return not self.requires

    def implements_interface(self, interface: str) -> Optional[InterfaceBinding]:
        for b in self.implements:
            if b.interface == interface:
                return b
        return None

    def installable_in(self, env: Mapping[str, Any]) -> bool:
        """Planner condition 1: every installation condition holds."""
        return all(c.evaluate(env) for c in self.conditions)

    def __repr__(self) -> str:
        return f"<Component {self.name}>"
