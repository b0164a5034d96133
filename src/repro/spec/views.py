"""Views: customized implementations of a component (paper §3.1, [17]).

A view *represents* an original component and comes in two kinds:

- **object view** — restricts functionality (``ViewMailClient`` supports
  send/receive but not the address book);
- **data view** — holds a subset of the original's state
  (``ViewMailServer`` caches some user accounts).

Views must be kept consistent with their original — the runtime's
coherence layer manages that (see :mod:`repro.coherence`).  A single view
definition can be instantiated into multiple *configurations*: the
``Factors`` clause binds service properties per instantiation, typically
to environment values (``TrustLevel = Node.TrustLevel``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .components import ComponentDef, InterfaceBinding
from .properties import EnvRef, SpecError

__all__ = ["ViewDef"]

VIEW_KINDS = ("object", "data")


@dataclass
class ViewDef(ComponentDef):
    """A view definition (subclass of component: views are deployable too)."""

    represents: str = ""
    kind: str = "data"
    factors: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.represents:
            raise SpecError(f"view {self.name!r} needs a Represents target")
        if self.kind not in VIEW_KINDS:
            raise SpecError(f"view kind must be one of {VIEW_KINDS}, got {self.kind!r}")
        self.factors = dict(self.factors)

    @property
    def is_view(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"<View {self.name} represents={self.represents} kind={self.kind}>"
