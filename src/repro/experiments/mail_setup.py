"""Shared setup for the mail-service case study experiments.

Builds a ready :class:`SmockRuntime` over the Figure 5 topology with the
primary MailServer pre-installed in New York, component classes
registered, the service registered in the lookup namespace, and the
account roster provisioned — the state of the world just before the
paper's measurements begin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..coherence import AttributeConflictMap, FlushPolicy, NeverPolicy, policy_from_name
from ..smock import SmockRuntime
from ..services.mail import (
    DEFAULT_USERS,
    MAIL_COMPONENT_CLASSES,
    build_mail_spec,
    mail_translator,
)
from .topology_fig5 import Fig5Topology, build_fig5_network

__all__ = ["MailTestbed", "build_mail_testbed"]


@dataclass
class MailTestbed:
    """A fully provisioned case-study runtime."""

    runtime: SmockRuntime
    topology: Fig5Topology

    @property
    def sim(self):
        return self.runtime.sim

    def client_nodes(self, site: str):
        return self.topology.clients[site]


def build_mail_testbed(
    clients_per_site: int = 5,
    node_cpu: Optional[float] = None,
    flush_policy: str = "never",
    algorithm: str = "dp_chain",
    planning_work: float = 2000.0,
    users=DEFAULT_USERS,
    **runtime_kwargs: Any,
) -> MailTestbed:
    """The standard case-study testbed.

    ``flush_policy`` is a :func:`policy_from_name` string applied to
    every deployed data-view replica ("never", "count:500",
    "count:1000", "time:<ms>", "write_through").

    ``algorithm`` defaults to the CANS-style DP planner: on the
    5-clients-per-site topology (19 nodes) it finds the same chains as
    the exhaustive planner in ~1% of the time (see the planner-scaling
    benchmark), which keeps the 45-cell Figure 7 sweep tractable.

    Every other keyword (``obs``, ``plan_cache``, ``versioned_coherence``,
    ``telemetry_interval_ms``, ``overload_protection``, ``autonomic``,
    ``lookup_replicas``, ...) is forwarded unchanged to
    :class:`SmockRuntime`, the one place runtime options are declared
    and documented; a misspelt one raises ``TypeError`` there.
    """
    spec = build_mail_spec()
    if node_cpu is None:
        topo = build_fig5_network(clients_per_site=clients_per_site)
    else:
        # Scaled-down node capacity (the load harness shrinks the
        # bottleneck so saturation cells stay event-count tractable).
        topo = build_fig5_network(clients_per_site=clients_per_site, node_cpu=node_cpu)

    def view_policy(view, instance) -> FlushPolicy:
        return policy_from_name(flush_policy)

    runtime = SmockRuntime(
        spec,
        topo.network,
        mail_translator(),
        algorithm=algorithm,
        lookup_node=topo.server_node,
        server_node=topo.server_node,
        code_base_node=topo.server_node,
        planning_work=planning_work,
        conflict_map=AttributeConflictMap("sensitivity", "TrustLevel", "le"),
        view_policy=view_policy,
        **runtime_kwargs,
    )
    runtime.service_state["mail_users"] = tuple(users)
    for name, cls in MAIL_COMPONENT_CLASSES.items():
        runtime.register_component(name, cls)
    runtime.register_service("mail", default_interface="ClientInterface")
    runtime.preinstall("MailServer", topo.server_node)
    return MailTestbed(runtime=runtime, topology=topo)
