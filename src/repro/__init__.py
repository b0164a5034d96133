"""repro — a reproduction of *Partitionable Services: A Framework for
Seamlessly Adapting Distributed Applications to Heterogeneous
Environments* (Ivan, Harman, Allen, Karamcheti — HPDC 2002).

The package implements the paper's three pillars plus every substrate
they rest on:

- :mod:`repro.spec` — declarative service specifications (§3.1):
  properties, interfaces, components, views, conditions, behaviors,
  property-modification rules; readable-form and XML parsers.
- :mod:`repro.smock` — the Smock run-time (§3.2): lookup service,
  generic proxy/server, node wrappers, deployment execution, dynamic
  replanning (§6).
- :mod:`repro.planner` — planning policies (§3.3): the exhaustive
  planner and the DP-chain (CANS-style) fast path over a shared
  constraint model (installability, property compatibility under
  environment modification, load vs. capacity).
- :mod:`repro.coherence` — directory-based cache coherence at view
  granularity with dynamic conflict maps and weak-consistency policies.
- :mod:`repro.network` — topology model, BRITE-style generators,
  credential translation, Remos-style monitoring.
- :mod:`repro.sim` — the deterministic discrete-event substrate
  standing in for the paper's Pentium III + Click-router testbed.
- :mod:`repro.trust` — dRBAC-style trust management (§6 extension).
- :mod:`repro.faults` — fault injection, heartbeat failure detection,
  and the self-healing failover loop built on the §6 replanner.
- :mod:`repro.services` — the mail case study (§2, §4) and a
  QoS-sensitive video service.
- :mod:`repro.experiments` — the Figure 5/6/7 and one-time-cost
  experiment harnesses.

Quick start::

    from repro.experiments import build_mail_testbed

    testbed = build_mail_testbed()
    runtime = testbed.runtime
    proxy = runtime.run(
        runtime.client_connect("sandiego-client1", {"User": "Bob"})
    )
    resp = runtime.run(proxy.request("send_mail", {
        "recipient": "Alice", "sensitivity": 2, "body": "hello",
    }))
"""

from . import coherence, faults, network, planner, sim, smock, spec, trust
from .network import Network
from .planner import DeploymentPlan, Planner, PlanningError, PlanRequest
from .sim import Simulator
from .smock import SmockRuntime
from .spec import ServiceSpec, parse_service

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "spec",
    "planner",
    "smock",
    "coherence",
    "network",
    "sim",
    "trust",
    "faults",
    "ServiceSpec",
    "parse_service",
    "Planner",
    "PlanRequest",
    "PlanningError",
    "DeploymentPlan",
    "SmockRuntime",
    "Simulator",
    "Network",
]
