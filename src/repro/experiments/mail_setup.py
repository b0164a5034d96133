"""Shared setup and lifecycle for the mail-service case study experiments.

Builds a ready :class:`SmockRuntime` over the Figure 5 topology with the
primary MailServer pre-installed in New York, component classes
registered, the service registered in the lookup namespace, and the
account roster provisioned — the state of the world just before the
paper's measurements begin.  The :class:`MailTestbed` it returns carries
the lifecycle every harness (chaos, load, Figure 7, the ``mail``
command) walks from there: ``connect`` → ``start_workloads`` →
``inject`` → ``drive`` → ``converge`` → ``slo_report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..coherence import AttributeConflictMap
from ..smock import SmockRuntime
from ..services.mail import (
    DEFAULT_USERS,
    MAIL_COMPONENT_CLASSES,
    build_mail_spec,
    mail_translator,
    mail_workload,
)
from .topology_fig5 import Fig5Topology, build_fig5_network

__all__ = ["MailTestbed", "build_mail_testbed"]


@dataclass
class MailTestbed:
    """A fully provisioned case-study runtime and its experiment lifecycle."""

    runtime: SmockRuntime
    topology: Fig5Topology

    @property
    def sim(self):
        return self.runtime.sim

    def client_nodes(self, site: str):
        return self.topology.clients[site]

    # -- experiment lifecycle ---------------------------------------------------
    def connect(self, node: str, user: str, retry: Any = None):
        """Bind ``user`` from ``node`` and return the proxy, with the
        ``retry`` policy installed when given.  The binding is registered
        with ``runtime.replanner`` iff one exists (``enable_self_healing()``
        or the autonomic manager created it), so rounds can rebind it."""
        runtime = self.runtime
        proxy = runtime.run(
            runtime.client_connect(node, {"User": user}), f"connect:{user}"
        )
        if retry is not None:
            proxy.retry_policy = retry
        replanner = runtime.replanner
        if replanner is not None:
            replanner.track_access(proxy, runtime.generic_server.accesses[-1])
        return proxy

    def start_workloads(
        self, proxies: Sequence[Any], configs: Sequence[Any], prefix: str
    ) -> List[Any]:
        """Start one scripted mail workload per ``(proxy, config)`` pair,
        named ``prefix + user`` (the name shows up in violation strings)."""
        return [
            self.sim.process(mail_workload(proxy, cfg), name=f"{prefix}{cfg.user}")
            for proxy, cfg in zip(proxies, configs)
        ]

    def inject(self, plan: Any) -> None:
        """Schedule a :class:`~repro.faults.FaultPlan` (absolute times) and
        note each action in the flight ring when one is recording."""
        from ..faults import FaultInjector

        FaultInjector(self.runtime, plan).schedule()
        flight = self.runtime.flight
        if flight is not None:
            for line in plan.describe():
                flight.event("fault_scheduled", self.sim.now, spec=line)

    def drive(
        self, done: Callable[[], bool], deadline: float, settle_until: float = 0.0
    ) -> None:
        """Run a self-healing testbed until ``done()`` or ``deadline``.

        The detector/monitor loops never drain the event list, so the
        run advances in 5 s slices; ``done`` is not consulted before
        ``settle_until``.  Afterwards those loops — and a leased
        lookup's renewals — are stopped, so later bounded runs see a
        quiescing event list.
        """
        runtime, sim = self.runtime, self.sim
        while sim.now < deadline and not (sim.now >= settle_until and done()):
            sim.run(until=min(sim.now + 5_000.0, deadline))
        runtime.failure_detector.stop()
        runtime.monitor.stop()
        runtime.lookup.stop()

    def converge(self) -> None:
        """Force convergence once the schedule is over: flush every dirty
        live replica upstream, then reconcile any lost buffers.

        Replicas can chain (a view syncing into another view), so one flush
        can re-dirty an upstream replica already swept this round — iterate
        until a full pass leaves nothing dirty (chains are acyclic, so this
        terminates in chain-depth passes; the cap is a hang guard for a
        replica whose flush keeps failing)."""
        runtime = self.runtime
        bundle = runtime.primary
        directory = runtime.coherence
        for _ in range(8):
            dirty = False
            for instance in bundle.dirty_replicas():
                dirty = True
                runtime.run(bundle.flush(instance), name=f"chaos-sweep:{instance.label}")
            if not dirty:
                break
        if directory.has_lost_buffers:
            directory.reconcile(runtime.sim.now)

    def slo_report(self, spec: Any):
        """Grade the run's metrics against ``spec``: ``"default"``, a
        spec-file path, inline JSON, or a mapping (:mod:`repro.obs.slo`)."""
        from ..obs.slo import SLOSpec, evaluate_slo, load_slo_spec

        runtime = self.runtime
        spec = load_slo_spec(spec) if isinstance(spec, str) else SLOSpec.from_dict(spec)
        return evaluate_slo(
            spec, runtime.obs.metrics, coherence_stats=runtime.coherence.stats
        )


def build_mail_testbed(
    clients_per_site: int = 5,
    node_cpu: Optional[float] = None,
    flush_policy: str = "never",
    algorithm: str = "dp_chain",
    users=DEFAULT_USERS,
    **runtime_kwargs: Any,
) -> MailTestbed:
    """The standard case-study testbed.

    ``flush_policy`` is a :func:`~repro.coherence.policy_from_name`
    string applied to every deployed data-view replica ("never",
    "count:500", "count:1000", "time:<ms>", "write_through").

    ``algorithm`` defaults to the CANS-style DP planner: on the
    5-clients-per-site topology (19 nodes) it finds the same chains as
    the exhaustive planner in ~1% of the time (see the planner-scaling
    benchmark), which keeps the 45-cell Figure 7 sweep tractable.

    The testbed fixes the runtime's ``server_node`` (the New York mail
    server, which also hosts the lookup unless ``lookup_hosts`` moves
    it, and the mail service's code base), and adds the ``"mail"``
    service with its ``algorithm``, ``conflict_map``, ``flush_policy``
    and component classes.  Every other keyword (``sim``, ``obs``,
    ``plan_cache``, ``telemetry_interval_ms``, ``flight``,
    ``overload_protection``, ``autonomic``, ``lookup_hosts``,
    ``lookup_leases``, ``directory_host``) is
    forwarded unchanged to :class:`SmockRuntime`, the one place runtime
    options are declared and documented; a misspelt one raises
    ``TypeError`` there.
    """
    spec = build_mail_spec()
    if node_cpu is None:
        topo = build_fig5_network(clients_per_site=clients_per_site)
    else:
        # Scaled-down node capacity (the load harness shrinks the
        # bottleneck so saturation cells stay event-count tractable).
        topo = build_fig5_network(clients_per_site=clients_per_site, node_cpu=node_cpu)

    runtime = SmockRuntime(topo.network, server_node=topo.server_node, **runtime_kwargs)
    runtime.service_state["mail_users"] = tuple(users)
    runtime.add_service(
        "mail",
        spec,
        mail_translator(),
        "ClientInterface",
        component_classes=MAIL_COMPONENT_CLASSES,
        algorithm=algorithm,
        conflict_map=AttributeConflictMap("sensitivity", "TrustLevel"),
        flush_policy=flush_policy,
    )
    runtime.preinstall("MailServer", topo.server_node)
    return MailTestbed(runtime=runtime, topology=topo)
