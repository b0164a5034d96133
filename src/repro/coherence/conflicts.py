"""Dynamic conflict maps (paper §3.2).

"The protocol maintains object consistency at the granularity of views.
Coherence actions are triggered based on dynamic conflict maps; the
latter define when a view conflicts with another..."

An :class:`Update` describes one state mutation with service-level
attributes (for mail: the recipient and the message's sensitivity
level).  A :class:`ConflictMap` answers whether an update produced under
one view configuration *conflicts with* (i.e. must eventually be made
visible to) another view configuration.  Maps are dynamic: predicates
can be registered and replaced at run time as the service evolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["Update", "ConflictMap", "AttributeConflictMap"]

ViewConfig = Tuple[str, Tuple[Tuple[str, Any], ...]]  # (unit, sorted factors)


@dataclass(frozen=True, slots=True)
class Update:
    """One buffered state mutation at a replica (slotted: replicas
    buffer hundreds of these per flush window)."""

    op: str
    attributes: Mapping[str, Any] = field(default_factory=dict)
    size_bytes: int = 0
    #: how many underlying user messages this update aggregates (a
    #: workload client "simulates the behavior of a cluster of users")
    multiplicity: int = 1
    #: version stamp, assigned by the directory when the update is first
    #: buffered (:meth:`CoherenceDirectory.on_local_update`): ``origin``
    #: is the buffering replica's id, ``seq`` its per-replica monotonic
    #: sequence number, ``ts_ms`` the simulated buffering instant (the
    #: last-writer-wins clock).  ``origin is None`` means not yet
    #: buffered, so not yet stamped.
    origin: Optional[int] = None
    seq: int = 0
    ts_ms: float = 0.0

    def attr(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    @property
    def version(self) -> Optional[Tuple[int, int]]:
        """The ``(origin, seq)`` identity, or ``None`` if not yet stamped."""
        return None if self.origin is None else (self.origin, self.seq)


Predicate = Callable[[Update, ViewConfig], bool]


class ConflictMap:
    """Predicate registry deciding update-vs-view conflicts.

    The default (no predicate registered for an op) is *conflict*: every
    view must see the update — the conservative choice.  Services narrow
    this with per-op predicates, e.g. "a stored mail message conflicts
    with a ViewMailServer configuration only if the message's sensitivity
    is within the view's trust level".
    """

    def __init__(self) -> None:
        self._predicates: Dict[str, Predicate] = {}
        self._default: Optional[Predicate] = None

    def register(self, op: str, predicate: Predicate) -> None:
        """Install/replace the predicate for one update op."""
        self._predicates[op] = predicate

    def register_default(self, predicate: Predicate) -> None:
        self._default = predicate

    def conflicts(self, update: Update, config: ViewConfig) -> bool:
        pred = self._predicates.get(update.op, self._default)
        if pred is None:
            return True
        return pred(update, config)

    def __repr__(self) -> str:
        return f"<ConflictMap ops={sorted(self._predicates)}>"


class AttributeConflictMap(ConflictMap):
    """Declarative conflict map over one update attribute and one factor.

    ``AttributeConflictMap("sensitivity", "TrustLevel")`` says: an
    update conflicts with a view configuration iff
    ``update.sensitivity <= config.TrustLevel`` — exactly the mail
    service's rule (messages above a replica's trust level are never
    stored there, so they cannot conflict with it).
    """

    def __init__(self, attribute: str, factor: str) -> None:
        super().__init__()
        self.attribute = attribute
        self.factor = factor

        def predicate(update: Update, config: ViewConfig) -> bool:
            value = update.attr(self.attribute)
            if value is None:
                return True  # unknown attribute: conservative conflict
            factors = dict(config[1])
            bound = factors.get(self.factor)
            if bound is None:
                return True  # unfactored view sees everything
            return value <= bound

        self.register_default(predicate)
