"""Discrete-event simulation substrate.

Replaces the paper's physical testbed (Pentium III nodes, Click software
router) with a deterministic, seeded simulator.  Public surface:

- :class:`Simulator` — event kernel, virtual clock (milliseconds)
- :class:`Event`, :class:`Timeout`, :class:`Process`
- :class:`Resource`, :class:`Monitor`
- :class:`SimNode` — host with CPU capacity + credentials
- :class:`SimLink` — latency/bandwidth link with security credential

The conservative parallel kernel lives in :mod:`repro.sim.parallel`
(imported on demand — it depends on :mod:`repro.network`, which in turn
imports this package, so an eager import here would be circular).  Its
entry point is ``repro.sim.parallel.run_parallel``.
"""

from .arrivals import (
    ArrivalProcess,
    ArrivalStream,
    FlashCrowdProcess,
    PoissonProcess,
)
from .engine import Simulator
from .events import (
    AllOf,
    AnyOf,
    Event,
    FaultError,
    Injected,
    LinkDownError,
    NodeDownError,
    SimulationError,
    Timeout,
)
from .node import SimNode
from .process import Process
from .resources import Monitor, Resource
from .transport import SimHalfLink, SimLink, transfer_time_ms

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Injected",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "FaultError",
    "NodeDownError",
    "LinkDownError",
    "Process",
    "Resource",
    "Monitor",
    "SimNode",
    "SimLink",
    "SimHalfLink",
    "transfer_time_ms",
    "ArrivalProcess",
    "ArrivalStream",
    "PoissonProcess",
    "FlashCrowdProcess",
]
