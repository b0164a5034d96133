"""Translation of network credentials into service properties.

The framework keeps service *properties* semantics-free; a node's or
link's application-independent *credentials* (site, domain, shaper
class...) must be translated into the properties a given service cares
about "based on external service-specific functions" (paper §3.3).

Two translator flavours are provided:

- :class:`FunctionTranslator` — arbitrary Python callables, the paper's
  current mechanism.
- :class:`RuleTranslator` — a declarative credential->property rule
  table.  This is the stepping stone towards the dRBAC-based
  service-independent mechanism sketched in §6 (fully realized in
  :mod:`repro.trust`).

Both produce an :class:`Environment`: the bag of property values the
planner feeds into installation conditions and property-modification
rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from .topology import LinkInfo, NodeInfo, PathInfo

__all__ = [
    "Environment",
    "CredentialTranslator",
    "FunctionTranslator",
    "RuleTranslator",
    "CredentialRule",
]


@dataclass(frozen=True)
class Environment:
    """Service-property values describing a node or path environment.

    Accessed like a read-only mapping.  Missing properties return the
    sentinel ``None``, which property-modification rules treat as "ANY".
    """

    values: Mapping[str, Any] = field(default_factory=dict)

    def get(self, prop: str, default: Any = None) -> Any:
        return self.values.get(prop, default)

    def __getitem__(self, prop: str) -> Any:
        return self.values[prop]

    def __contains__(self, prop: str) -> bool:
        return prop in self.values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.values.items()))
        return f"Environment({inner})"


EMPTY_ENVIRONMENT = Environment({})


class CredentialTranslator:
    """Base translator: override the two hooks.

    The default translation is empty (no service properties derivable
    from the environment), which makes every installation condition that
    requires a property fail closed — the safe default for a
    security-oriented framework.
    """

    def node_environment(self, node: NodeInfo) -> Environment:
        """Service properties of a host environment."""
        return EMPTY_ENVIRONMENT

    def path_environment(self, path: PathInfo) -> Environment:
        """Service properties of a (possibly multi-hop) path environment."""
        return EMPTY_ENVIRONMENT


class FunctionTranslator(CredentialTranslator):
    """Translator built from two plain callables (paper's current design)."""

    def __init__(
        self,
        node_fn: Optional[Callable[[NodeInfo], Dict[str, Any]]] = None,
        path_fn: Optional[Callable[[PathInfo], Dict[str, Any]]] = None,
    ) -> None:
        self._node_fn = node_fn
        self._path_fn = path_fn

    def node_environment(self, node: NodeInfo) -> Environment:
        if self._node_fn is None:
            return EMPTY_ENVIRONMENT
        return Environment(dict(self._node_fn(node)))

    def path_environment(self, path: PathInfo) -> Environment:
        if self._path_fn is None:
            return EMPTY_ENVIRONMENT
        return Environment(dict(self._path_fn(path)))


@dataclass(frozen=True)
class CredentialRule:
    """One declarative translation: credential key -> property name.

    ``value_map`` optionally remaps credential values; ``default`` is
    used when the credential is absent.  ``None`` default means the
    property is simply not emitted for that environment.
    """

    credential: str
    property: str
    value_map: Optional[Mapping[Any, Any]] = None
    default: Any = None

    def apply(self, credentials: Mapping[str, Any], out: Dict[str, Any]) -> None:
        if self.credential in credentials:
            raw = credentials[self.credential]
            if self.value_map is not None:
                if raw in self.value_map:
                    out[self.property] = self.value_map[raw]
                elif self.default is not None:
                    out[self.property] = self.default
            else:
                out[self.property] = raw
        elif self.default is not None:
            out[self.property] = self.default


class RuleTranslator(CredentialTranslator):
    """Declarative rule-table translator.

    Node rules read ``NodeInfo.credentials``; link rules read each hop's
    credentials plus the built-in pseudo-credentials ``secure`` (bool),
    ``latency_ms`` and ``bandwidth_mbps``.  Path translation combines the
    per-hop results with per-property *combiners* (default: boolean
    ``and`` for bools, ``min`` for numbers, equality-or-None otherwise) —
    the conservative aggregate for multi-hop environments.
    """

    def __init__(
        self,
        node_rules: Optional[list[CredentialRule]] = None,
        link_rules: Optional[list[CredentialRule]] = None,
        combiners: Optional[Dict[str, Callable[[Any, Any], Any]]] = None,
    ) -> None:
        self.node_rules = list(node_rules or [])
        self.link_rules = list(link_rules or [])
        self.combiners = dict(combiners or {})

    def node_environment(self, node: NodeInfo) -> Environment:
        out: Dict[str, Any] = {}
        for rule in self.node_rules:
            rule.apply(node.credentials, out)
        return Environment(out)

    def _link_environment(self, link: LinkInfo) -> Dict[str, Any]:
        creds: Dict[str, Any] = dict(link.credentials)
        creds.setdefault("secure", link.secure)
        creds.setdefault("latency_ms", link.latency_ms)
        creds.setdefault("bandwidth_mbps", link.bandwidth_mbps)
        out: Dict[str, Any] = {}
        for rule in self.link_rules:
            rule.apply(creds, out)
        return out

    def _combine(self, prop: str, a: Any, b: Any) -> Any:
        fn = self.combiners.get(prop)
        if fn is not None:
            return fn(a, b)
        if isinstance(a, bool) and isinstance(b, bool):
            return a and b
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return min(a, b)
        return a if a == b else None

    def path_environment(self, path: PathInfo) -> Environment:
        if not path.hops:
            # Local environment: emit each rule's most permissive value by
            # evaluating against a perfect loopback hop.
            loopback = LinkInfo(path.src, path.dst or path.src, 0.0, float("inf"), True)
            return Environment(self._link_environment(loopback))
        combined: Optional[Dict[str, Any]] = None
        for hop in path.hops:
            env = self._link_environment(hop)
            if combined is None:
                combined = env
            else:
                merged: Dict[str, Any] = {}
                for prop in set(combined) | set(env):
                    if prop in combined and prop in env:
                        merged[prop] = self._combine(prop, combined[prop], env[prop])
                    # Properties present on only some hops are dropped:
                    # we cannot vouch for them end to end.
                combined = merged
        return Environment(combined or {})
