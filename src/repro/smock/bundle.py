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
from typing import TYPE_CHECKING, Any, Dict, Generator, Iterator, Tuple, Type

from ..coherence import CoherenceDirectory, policy_from_name
from ..network import NetworkError
from ..planner import Planner
from ..sim import FaultError
from ..spec import ServiceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .component import RuntimeComponent
    from .server import GenericServer

__all__ = ["ServiceBundle"]


@dataclass
class ServiceBundle:
    """Everything belonging to one hosted service, and the one owner of
    a live instance's coherence lifecycle: it registers replicas
    (:meth:`register_replica`), tells primaries apart (:meth:`is_primary`),
    writes replicas back (:meth:`flush`, the one entry point), loses an
    instance whose host died (:meth:`lose`) and uninstalls instances
    (:meth:`uninstall`)."""

    name: str
    spec: ServiceSpec
    planner: Planner
    server: "GenericServer"
    coherence: CoherenceDirectory
    default_interface: str = ""
    code_base_node: str = ""
    component_classes: Dict[str, Type["RuntimeComponent"]] = field(default_factory=dict)
    instances: Dict[Tuple, "RuntimeComponent"] = field(default_factory=dict)
    #: :func:`~repro.coherence.policy_from_name` string every data-view
    #: replica of this service flushes by
    flush_policy: str = "never"

    def component_class(self, unit_name: str) -> Type["RuntimeComponent"]:
        from .deployment import DeploymentError

        cls = self.component_classes.get(unit_name)
        if cls is None:
            raise DeploymentError(
                f"service {self.name!r}: no runtime class registered for "
                f"unit {unit_name!r}"
            )
        return cls

    # -- coherence lifecycle --------------------------------------------------
    def register_replica(self, instance: "RuntimeComponent", now_ms: float) -> None:
        """Register a freshly deployed data-view instance with the
        directory as a replica of the family its view represents, under
        this service's :attr:`flush_policy`."""
        view = instance.unit
        entry = self.coherence.register_replica(
            family=view.represents,
            config=(view.name, tuple(sorted(instance.factor_values.items()))),
            host=instance,
            policy=policy_from_name(self.flush_policy),
            now_ms=now_ms,
        )
        instance.replica_id = entry.replica_id

    def is_primary(self, key: Tuple) -> bool:
        """Whether the live instance at placement ``key`` is the primary
        the directory registered for its family.  Primaries are
        permanent: a replan round never retires one."""
        instance = self.instances.get(key)
        return (
            instance is not None
            and self.coherence._primaries.get(instance.unit.name) is instance
        )

    def uninstall(self, key: Tuple) -> None:
        """Remove the live instance at placement ``key``, if any: off its
        node, out of :attr:`instances`, and out of the directory when it
        is a replica."""
        instance = self.instances.pop(key, None)
        if instance is None:
            return
        instance.runtime.wrappers[instance.node_name].uninstall(instance.instance_id)
        if instance.replica_id is not None:
            self.coherence.unregister_replica(instance.replica_id)
            instance.replica_id = None

    def lose(self, key: Tuple) -> None:
        """Purge the instance at ``key`` after its host died: a replica's
        unflushed buffer is reported lost (and stashed for anti-entropy
        replay), the instance is stopped, then uninstalled."""
        instance = self.instances[key]
        if instance.replica_id is not None:
            self.coherence.report_lost(instance.replica_id)
        instance.stop()
        self.uninstall(key)

    def dirty_replicas(self) -> Iterator["RuntimeComponent"]:
        """Live replica hosts whose buffer holds unflushed updates, in
        :attr:`instances` order.  Each host is tested when the iteration
        reaches it, so a flush that dirties a later replica (views can
        chain) is seen in the same pass."""
        replicas = self.coherence._replicas
        for instance in list(self.instances.values()):
            if instance.replica_id is None or instance.failed:
                continue
            entry = replicas.get(instance.replica_id)
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
        if instance.replica_id is None:
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
