"""Conservative parallel discrete-event simulation.

The paper's deployments are site-partitioned: a handful of sites whose
only slow edges are the inter-site links.  This package exploits that
shape to break the sequential kernel's single-core ceiling:

- :mod:`.partition` splits the topology by site credential into one
  logical process per site.
- :mod:`.lp` wraps the *unchanged* sequential :class:`~repro.sim.Simulator`
  per partition, bounded by the null-message safe horizon; lookahead is
  the minimum inter-site link latency.
- :mod:`.worker` hosts logical processes on persistent worker processes
  (``multiprocessing``, warm-started via fork) and runs the
  null-message drive loop.
- :mod:`.runner` is the one entry point,
  :func:`~repro.sim.parallel.run_parallel` (the ``parallel-sim`` CLI
  command calls it).
- :mod:`.traffic` ships a reusable deterministic site-traffic workload.

Worker count is pure placement: results (and their signatures) are
identical for workers=1/2/4 — see ``tests/sim/test_parallel_kernel.py``.
"""

from .channel import Advert, RemoteMessage
from .lp import LogicalProcess, PartitionContext
from .partition import (
    CutLink,
    Partition,
    PartitionError,
    PartitionPlan,
    partition_network,
)
from .runner import ParallelRunResult, run_parallel
from .traffic import TrafficConfig, site_traffic_program

__all__ = [
    "Advert",
    "RemoteMessage",
    "LogicalProcess",
    "PartitionContext",
    "CutLink",
    "Partition",
    "PartitionError",
    "PartitionPlan",
    "partition_network",
    "ParallelRunResult",
    "run_parallel",
    "TrafficConfig",
    "site_traffic_program",
]
