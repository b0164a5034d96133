"""Per-service state within a shared Smock runtime.

One runtime can host several partitionable services; the paper notes
the framework "ensures that the generic server does not become a
bottleneck by spreading out requests for different services among
multiple instances".  Each registered service gets its own
:class:`ServiceBundle`: spec, planner (with its own deployment state and
objective), generic-server instance, coherence directory, component
classes, and instance registry — while the simulator, network,
transport, node wrappers and lookup namespace are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Iterator, Optional, Tuple, Type

from ..coherence import CoherenceDirectory
from ..network import NetworkError
from ..planner import Planner
from ..sim import FaultError
from ..spec import ServiceSpec, ViewDef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .component import RuntimeComponent
    from .server import GenericServer

__all__ = ["ServiceBundle"]


@dataclass
class ServiceBundle:
    """Everything belonging to one hosted service, and the one entry
    point, :meth:`flush`, through which its replicas write back."""

    name: str
    spec: ServiceSpec
    planner: Planner
    server: "GenericServer"
    coherence: CoherenceDirectory
    default_interface: str = ""
    code_base_node: str = ""
    component_classes: Dict[str, Type["RuntimeComponent"]] = field(default_factory=dict)
    instances: Dict[Tuple, "RuntimeComponent"] = field(default_factory=dict)
    view_policy: Callable[[ViewDef, Any], Any] = None  # type: ignore[assignment]

    def component_class(self, unit_name: str) -> Type["RuntimeComponent"]:
        from .deployment import DeploymentError

        cls = self.component_classes.get(unit_name)
        if cls is None:
            raise DeploymentError(
                f"service {self.name!r}: no runtime class registered for "
                f"unit {unit_name!r}"
            )
        return cls

    def dirty_replicas(self) -> Iterator["RuntimeComponent"]:
        """Live replica hosts whose buffer holds unflushed updates, in
        :attr:`instances` order.  Each host is tested when the iteration
        reaches it, so a flush that dirties a later replica (views can
        chain) is seen in the same pass."""
        replicas = self.coherence._replicas
        for instance in list(self.instances.values()):
            replica_id = getattr(instance, "replica_id", None)
            if replica_id is None or getattr(instance, "failed", False):
                continue
            entry = replicas.get(replica_id)
            if entry is not None and entry.dirty:
                yield instance

    def flush(self, instance: "RuntimeComponent") -> Generator[Any, Any, bool]:
        """Write one replica's buffered updates back upstream.

        The entry point for every flush from outside a component (a
        retiring instance, anti-entropy, the autonomic loop, a testbed's
        convergence).  The flush is the component's ``write_back``, which
        requeues what it could not deliver; False when a fault cut it
        short (a later round retries) or ``instance`` is no replica.
        """
        if getattr(instance, "replica_id", None) is None:
            return False
        try:
            yield from instance.write_back()
        except (NetworkError, FaultError):
            return False  # still partitioned
        return True

    def flush_dirty(self) -> Generator[Any, Any, int]:
        """:meth:`flush` every :meth:`dirty_replicas` host in turn; returns
        how many flushes ran to their end."""
        flushed = 0
        for instance in self.dirty_replicas():
            if (yield from self.flush(instance)):
                flushed += 1
        return flushed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServiceBundle {self.name!r} units={len(self.component_classes)} "
            f"instances={len(self.instances)}>"
        )
