"""Planning policies (paper §3.3).

Two interchangeable algorithms over a shared constraint model:

- :func:`plan_exhaustive` — the paper's current implementation: combined
  linkage-enumeration + network-mapping search with branch-and-bound,
  over general component graphs (fan-out included), and the exact
  reference the other algorithm is checked against;
- :func:`plan_dp_chain` — the CANS-style dynamic program for chain
  graphs ([13]), which abstains on anything else.

:class:`Planner` is the facade the runtime uses; it owns deployment
state, capacity reservations, and the planner fast path — the
:class:`PlanCache` of finished plans (keyed under the content-based
topology epoch ``Network.state_fingerprint()``, so recurring network
states re-hit their plans), the memoized validity checks inside
:class:`PlanningContext`, and :meth:`Planner.replan_incremental`, the
seeded search the replanner uses to patch a deployment around a failed
host instead of re-deriving it from scratch.
"""

from .cache import PlanCache, PlanCacheStats
from .compat import ContextCacheStats, PlanningContext
from .dp_chain import DPStats, plan_dp_chain
from .exhaustive import SearchStats, plan_exhaustive
from .linkage import LinkageGraph, enumerate_linkage_graphs, valid_chains
from .load import LoadReport, check_loads, compute_loads, config_covered, config_of
from .objectives import DeploymentCost, ExpectedLatency, MaxCapacity, Objective
from .plan import (
    DeploymentPlan,
    DeploymentState,
    Placement,
    PlannedLinkage,
    PlanRequest,
)
from .incremental import surviving_placements
from .planner import ALGORITHMS, Planner, PlanningError

__all__ = [
    "Planner",
    "PlanningError",
    "ALGORITHMS",
    "PlanningContext",
    "ContextCacheStats",
    "PlanCache",
    "PlanCacheStats",
    "surviving_placements",
    "PlanRequest",
    "DeploymentPlan",
    "DeploymentState",
    "Placement",
    "PlannedLinkage",
    "LinkageGraph",
    "enumerate_linkage_graphs",
    "valid_chains",
    "LoadReport",
    "compute_loads",
    "check_loads",
    "config_of",
    "config_covered",
    "Objective",
    "ExpectedLatency",
    "DeploymentCost",
    "MaxCapacity",
    "plan_exhaustive",
    "SearchStats",
    "plan_dp_chain",
    "DPStats",
]
