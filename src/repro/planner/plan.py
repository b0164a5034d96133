"""Plan data structures shared by every planning algorithm.

A :class:`DeploymentPlan` is the planner's output: a set of component
*placements* (unit -> node, with bound view factors) wired together by
*linkages* (client placement -> server placement over a network path),
rooted at the placement that serves the requesting client.

:class:`DeploymentState` carries already-installed placements between
planning rounds, so later client requests can *reuse* components that
earlier deployments installed (the Figure 6 Seattle deployment links to
the ViewMailServer that the San Diego deployment created).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..network import Network, PathInfo
from ..spec import ComponentDef, SpecError, ViewDef

__all__ = ["Placement", "PlannedLinkage", "DeploymentPlan", "DeploymentState", "PlanRequest"]


@dataclass(frozen=True)
class Placement:
    """One unit instantiated on one node.

    ``factor_values`` is non-empty only for views with ``Factors``
    (e.g. ``ViewMailServer`` bound to ``TrustLevel = 3``).
    ``implemented`` records the fully resolved properties per implemented
    interface, as generated *at this node* (EnvRefs substituted).
    ``reused`` marks placements that already existed before this plan.

    ``key`` and the hash are computed once, at construction (and again
    by ``dataclasses.replace``): the planner's tables hash the same
    placements thousands of times per plan.  The hash is the one a
    frozen dataclass generates, over the five fields above.
    """

    unit: str
    node: str
    factor_values: Tuple[Tuple[str, Any], ...] = ()
    implemented: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    reused: bool = False
    #: identity used for reuse matching: unit + node + factors
    key: Tuple[str, str, Tuple[Tuple[str, Any], ...]] = field(
        init=False, repr=False, compare=False
    )
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = (self.unit, self.node, self.factor_values, self.implemented, self.reused)
        object.__setattr__(self, "key", values[:3])
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[Any, ...]:
        # Constructor + field tuple: string hashes differ per process, so
        # the cached hash must be recomputed on arrival, not carried.
        return (
            self.__class__,
            (self.unit, self.node, self.factor_values, self.implemented, self.reused),
        )

    def implemented_props(self, interface: str) -> Optional[Dict[str, Any]]:
        for iface, props in self.implemented:
            if iface == interface:
                return dict(props)
        return None

    def label(self) -> str:
        factors = ",".join(f"{k}={v}" for k, v in self.factor_values)
        suffix = f"[{factors}]" if factors else ""
        return f"{self.unit}{suffix}@{self.node}"

    def __repr__(self) -> str:
        return f"<Placement {self.label()}{' (reused)' if self.reused else ''}>"


def freeze_props(props: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Stable, hashable form of a property bag."""
    return tuple(sorted(props.items()))


def freeze_implemented(
    implemented: Mapping[str, Mapping[str, Any]]
) -> Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]:
    return tuple(sorted((i, freeze_props(p)) for i, p in implemented.items()))


@dataclass(frozen=True)
class PlannedLinkage:
    """A client placement consuming an interface of a server placement."""

    client: int  #: index into DeploymentPlan.placements
    server: int
    interface: str

    def __repr__(self) -> str:
        return f"<Linkage #{self.client} --{self.interface}--> #{self.server}>"


@dataclass
class DeploymentPlan:
    """A complete, validated mapping of a linkage graph onto the network."""

    placements: List[Placement]
    linkages: List[PlannedLinkage]
    root: int  #: placement index serving the client's requested interface
    client_node: str
    score: Tuple[float, ...] = ()
    #: objective diagnostics (expected latency, loads...), for reporting
    metrics: Dict[str, float] = field(default_factory=dict)

    def new_placements(self) -> List[Placement]:
        return [p for p in self.placements if not p.reused]

    def servers_of(self, idx: int) -> List[Tuple[str, int]]:
        """(interface, server placement index) pairs consumed by ``idx``."""
        return [(l.interface, l.server) for l in self.linkages if l.client == idx]

    def chain_from_root(self) -> List[Placement]:
        """Placements in BFS order from the root (stable for display)."""
        order: List[int] = [self.root]
        seen = {self.root}
        i = 0
        while i < len(order):
            for _iface, srv in self.servers_of(order[i]):
                if srv not in seen:
                    seen.add(srv)
                    order.append(srv)
            i += 1
        return [self.placements[i] for i in order]

    def describe(self) -> str:
        """Human-readable multi-line rendering of the plan."""
        lines = [f"plan for client at {self.client_node} (score={self.score}):"]
        for idx, p in enumerate(self.placements):
            marker = " (reused)" if p.reused else ""
            rootmark = " <- root" if idx == self.root else ""
            lines.append(f"  [{idx}] {p.label()}{marker}{rootmark}")
        for l in self.linkages:
            lines.append(
                f"  {self.placements[l.client].label()} --{l.interface}--> "
                f"{self.placements[l.server].label()}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<DeploymentPlan root={self.placements[self.root].label()} "
            f"units={len(self.placements)} score={self.score}>"
        )


class DeploymentState:
    """Installed placements persisting across planning rounds."""

    def __init__(self) -> None:
        self._placements: Dict[Tuple[str, str, Tuple[Tuple[str, Any], ...]], Placement] = {}
        #: steady-state inbound request rate committed per placement key
        self.committed_rates: Dict[Tuple[str, str, Tuple[Tuple[str, Any], ...]], float] = {}

    def add(self, placement: Placement, inbound_rate: float = 0.0) -> Placement:
        """Record a placement as installed; idempotent on identical keys."""
        existing = self._placements.get(placement.key)
        if existing is None:
            stored = replace(placement, reused=True)
            self._placements[placement.key] = stored
            self.committed_rates[placement.key] = inbound_rate
            return stored
        self.committed_rates[placement.key] += inbound_rate
        return existing

    def absorb(self, plan: DeploymentPlan, rates: Optional[Mapping[int, float]] = None) -> None:
        """Install every placement of an accepted plan."""
        for idx, p in enumerate(plan.placements):
            rate = rates.get(idx, 0.0) if rates else 0.0
            self.add(p, rate)

    def clone(self) -> "DeploymentState":
        """Independent copy (placements are frozen and shared).

        Used by incremental replanning to seed a hypothetical state with
        the survivors of a previous plan without touching live state.
        """
        other = DeploymentState()
        other._placements = dict(self._placements)
        other.committed_rates = dict(self.committed_rates)
        return other

    def placements(self) -> List[Placement]:
        return list(self._placements.values())

    def implementers_of(self, interface: str) -> List[Placement]:
        return [
            p
            for p in self._placements.values()
            if p.implemented_props(interface) is not None
        ]

    def __len__(self) -> int:
        return len(self._placements)

    def __contains__(self, key: Tuple[str, str, Tuple[Tuple[str, Any], ...]]) -> bool:
        return key in self._placements

    def __repr__(self) -> str:
        return f"<DeploymentState installed={len(self._placements)}>"


@dataclass
class PlanRequest:
    """A client's request for service access.

    ``context`` carries request-scope properties (the paper's ``User``
    credential that the MailClient ACL checks).  ``request_rate`` is the
    aggregate request rate the deployment must sustain, in requests/sec;
    if zero, the root unit's declared ``RequestRate`` behavior is used.
    """

    interface: str
    client_node: str
    context: Dict[str, Any] = field(default_factory=dict)
    #: client QoS/security expectations on the requested interface: the
    #: root placement's implemented properties (as delivered at the
    #: client's node) must satisfy these, e.g. ``{"Confidentiality": True}``
    required_properties: Dict[str, Any] = field(default_factory=dict)
    request_rate: float = 0.0
    #: search bound: max placements per plan.  6 covers every case-study
    #: chain (client + cache + relay pair + reused upstream) with slack;
    #: raising it grows the exhaustive planner's search exponentially.
    max_units: int = 6
    #: pin the root component onto the client's node (paper's deployments
    #: always run the client component at the client's site)
    root_on_client: bool = True

    def __post_init__(self) -> None:
        if not self.interface:
            raise SpecError("request needs an interface name")
        if self.max_units < 1:
            raise SpecError("max_units must be >= 1")
        if not self.request_rate >= 0:  # NaN too: it would disable condition 3
            raise SpecError("negative or NaN request_rate")
