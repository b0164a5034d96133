"""Simulated compute nodes.

A :class:`SimNode` models the Pentium III hosts of the paper's testbed:
a CPU with a capacity in *work units per second* and a FIFO run queue.
Components installed on a node charge their per-request CPU cost here,
so an overloaded node shows up as queueing delay — which is what the
planner's condition 3 (load vs. capacity) is protecting against.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from .engine import Simulator
from .events import Event, NodeDownError, Timeout
from .resources import Resource

__all__ = ["SimNode"]


class SimNode:
    """A host in the simulated network.

    ``cpu_capacity`` is expressed in work-units/second; executing a job of
    ``cpu_work`` units takes ``cpu_work / cpu_capacity`` seconds of
    exclusive CPU.  ``credentials`` carries application-independent facts
    about the node (site, trust domain) that the credential-translation
    layer maps into service properties.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu_capacity: float = 1000.0,
        credentials: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not cpu_capacity > 0:  # also rejects NaN
            raise ValueError(f"cpu_capacity must be positive, got {cpu_capacity}")
        self.sim = sim
        self.name = name
        self.cpu_capacity = cpu_capacity
        self.credentials = dict(credentials or {})
        self.cpu = Resource(sim, 1)
        #: components installed here by the runtime, keyed by instance id.
        self.installed: Dict[str, Any] = {}
        #: liveness flag: a crashed node refuses CPU work and deliveries.
        self.up = True
        #: sim time of the most recent crash (None while healthy);
        #: recovery metrics are measured from this instant.
        self.crashed_at_ms: Optional[float] = None
        self.crashes = 0

    def crash(self) -> None:
        """Fail-stop the node: volatile state is lost, work is refused.

        Components installed here stop serving immediately (any job in
        flight across the crash instant fails on its next resume); the
        runtime-level registries are reconciled later, by failover —
        the directory's view of this node is *supposed* to go stale
        until a failure detector notices.
        """
        if not self.up:
            return
        self.up = False
        self.crashed_at_ms = self.sim.now
        self.crashes += 1
        self.installed.clear()

    def restart(self) -> None:
        """Bring the node back, empty: installed state did not survive."""
        if self.up:
            return
        self.up = True
        self.crashed_at_ms = None

    def service_time_ms(self, cpu_work: float) -> float:
        """Exclusive-CPU time, in ms, for a job of ``cpu_work`` units."""
        if cpu_work < 0:
            raise ValueError(f"negative cpu work: {cpu_work}")
        return cpu_work / self.cpu_capacity * 1e3

    def execute(self, cpu_work: float) -> Generator[Event, Any, None]:
        """Process generator: queue for the CPU, hold it, release it.

        Raises :class:`NodeDownError` if the node is crashed — checked
        both on entry and after the service time elapses, so a crash
        mid-execution kills the job rather than letting it complete on
        a dead host.
        """
        if not self.up:
            raise NodeDownError(f"node {self.name} is down")
        sim = self.sim
        # Each event built and yielded only when the kernel would not
        # dispatch it next to this process anyway (Simulator.take_now,
        # Simulator.take_after).  One name for both, so a suspended frame
        # keeps at most one dispatched event alive.
        ev = self.cpu.request_in_place()
        if ev is not None:
            yield ev
        try:
            delay = self.service_time_ms(cpu_work)
            if not sim.take_after(delay):
                ev = Timeout(sim, delay)
                yield ev
        finally:
            self.cpu.release()
        if not self.up:
            raise NodeDownError(f"node {self.name} crashed during execution")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimNode {self.name} cap={self.cpu_capacity} installed={len(self.installed)}>"
