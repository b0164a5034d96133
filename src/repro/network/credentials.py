"""Translation of network credentials into service properties.

The framework keeps service *properties* semantics-free; a node's or
link's application-independent *credentials* (site, domain, shaper
class...) must be translated into the properties a given service cares
about "based on external service-specific functions" (paper §3.3).

:class:`FunctionTranslator` wraps arbitrary Python callables, the
paper's current mechanism; the dRBAC-based service-independent
mechanism sketched in §6 is :class:`repro.trust.TrustTranslator`.

Each produces an :class:`Environment`: the bag of property values the
planner feeds into installation conditions and property-modification
rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from .topology import NodeInfo, PathInfo

__all__ = [
    "Environment",
    "CredentialTranslator",
    "FunctionTranslator",
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
