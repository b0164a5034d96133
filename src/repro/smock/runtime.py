"""The Smock runtime facade.

Owns the simulator, the materialized network, per-node wrappers, and the
lookup service — plus one :class:`~repro.smock.bundle.ServiceBundle` per
hosted service (spec, planner, generic server, coherence directory,
component classes, live instances).  A runtime starts with no service;
each arrives through :meth:`add_service` with its own generic-server
instance ("spreading out requests for different services among multiple
instances", §3.2).  The first service added is the runtime's
:attr:`~SmockRuntime.primary`, which backs the single-service
shorthands (``runtime.planner``, ``.coherence``, ``.generic_server``,
``.instances``, ``.spec``).

Experiments interact almost exclusively with this class::

    runtime = SmockRuntime(network)
    runtime.add_service("mail", spec, translator, "ClientInterface",
                        component_classes=MAIL_COMPONENT_CLASSES)
    runtime.preinstall("MailServer", "newyork-ms")
    proxy = runtime.run(runtime.client_connect("sandiego-client1",
                                               {"User": "Bob"}))
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional, Tuple, Type

from ..coherence import CoherenceDirectory, ConflictMap, policy_from_name
from ..network import CredentialTranslator, Network
from ..obs import Observability, resolve_obs
from ..planner import DeploymentPlan, Placement, Planner
from ..sim import Simulator
from ..spec import ServiceSpec, ViewDef
from .bundle import ServiceBundle
from .component import RuntimeComponent
from .deployment import Deployer, DeploymentError, DeploymentRecord
from .leases import LeaseConfig
from .lookup import LookupService
from .proxy import BindRecord, ServiceProxy
from .server import GenericServer
from .transport import RuntimeTransport
from .wrapper import NodeWrapper

__all__ = ["SmockRuntime"]

#: how often a self-healing runtime's NetworkMonitor polls (sim ms)
MONITOR_POLL_MS = 500.0


class SmockRuntime:
    """Everything needed to run partitionable services end to end."""

    def __init__(
        self,
        network: Network,
        *,
        sim: Optional[Simulator] = None,
        server_node: Optional[str] = None,
        obs: Optional[Observability] = None,
        plan_cache: Any = None,
        telemetry_interval_ms: Optional[float] = None,
        flight: Any = None,
        overload_protection: bool = False,
        autonomic: bool = False,
        lookup_hosts: Optional[List[str]] = None,
        lookup_leases: Any = False,
        directory_host: Optional[str] = None,
    ) -> None:
        self.network = network
        self.obs = resolve_obs(obs)
        #: plan-cache setting inherited by every service bundle (see
        #: :class:`repro.planner.Planner`: ``None`` = private cache,
        #: ``False`` = caching off)
        self._plan_cache_setting = plan_cache
        self.sim = sim or Simulator(obs=self.obs)
        for name, value in (
            ("overload_protection", overload_protection), ("autonomic", autonomic)
        ):
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, got {value!r}")
        #: overload protection (see smock.overload): ``False`` constructs
        #: nothing — every hot path guards on ``runtime.overload is None``
        #: and stays byte-identical to a runtime predating the feature;
        #: ``True`` builds the stack at the module's constants.
        self.overload = None
        if overload_protection:
            from .overload import OverloadManager

            self.overload = OverloadManager(self.sim, metrics=self.obs.metrics)
        if self.obs.tracer.enabled:
            # An externally-supplied simulator may carry a different (or
            # null) obs; bind our tracer to whichever clock we ended up
            # with so spans always get simulated durations.
            self.obs.tracer.bind_sim_clock(lambda: self.sim.now)
        self.transport = RuntimeTransport(self.sim, network)
        #: the lookup sits on the first lookup host, else with the
        #: generic server, else on the network's first node
        self.lookup_node = (
            lookup_hosts[0] if lookup_hosts
            else server_node or next(iter(network.nodes())).name
        )
        #: default generic-server host (and code base) of each service
        self.server_node = server_node or self.lookup_node

        #: control-plane availability knobs (see ARCHITECTURE.md
        #: "control-plane availability").  With one lookup host and
        #: leases off the lookup schedules no event of its own, and with
        #: no ``directory_host`` the directory keeps no journal (both
        #: pinned by tests/integration/test_control_plane_identity.py).
        self.directory_host = directory_host
        if directory_host is not None:
            self.transport.node(directory_host)  # raises for unknown nodes
        #: directory-takeover audit trail appended by the ReplanManager
        #: (crashed host, new host, recovery report) — read by the chaos
        #: invariants.
        self.directory_takeovers: List[Dict[str, Any]] = []
        self.lookup = LookupService(
            self,
            list(lookup_hosts) if lookup_hosts else [self.lookup_node],
            LeaseConfig.coerce(lookup_leases),
        )
        #: the recovery loop, wired by :meth:`enable_self_healing` (the
        #: autonomic manager may create a dormant monitor + replanner)
        self.monitor: Optional[Any] = None
        self.failure_detector: Optional[Any] = None
        self.replanner: Optional[Any] = None
        self.deployer = Deployer(self)
        self.wrappers: Dict[str, NodeWrapper] = {
            name: NodeWrapper(self, node)
            for name, node in self.transport.nodes.items()
        }

        self.bind_records: List[BindRecord] = []
        #: service-level shared configuration components may read in
        #: lifecycle hooks (e.g. the mail service's account roster)
        self.service_state: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._bundles: Dict[str, ServiceBundle] = {}
        #: the first service added (see :attr:`primary`)
        self._primary: Optional[ServiceBundle] = None

        #: continuous telemetry (see ARCHITECTURE.md "telemetry
        #: pipeline").  ``None`` constructs nothing — byte-identical to
        #: a runtime without the feature; ``> 0`` samples every
        #: that-many simulated ms.
        self.flight = flight
        self.sampler: Optional[Any] = None
        #: components keep their service times only for an attached
        #: sampler's per-tick scan (set by ``attach_runtime``)
        self.records_service_times = False
        #: autonomic loop (see repro.autonomic): ``False`` constructs
        #: nothing — byte-identical runs; ``True`` implies telemetry
        #: (defaulting the sampler to 500 ms when the caller did not
        #: size it).
        self.autonomic: Optional[Any] = None
        if autonomic and telemetry_interval_ms is None:
            telemetry_interval_ms = 500.0
        if telemetry_interval_ms is not None:
            from ..obs.timeseries import TelemetrySampler

            self.sampler = TelemetrySampler(
                self.sim,
                metrics=self.obs.metrics,
                interval_ms=telemetry_interval_ms,
                flight=flight,
            )
            self.sampler.attach_runtime(self)
            self.sampler.start()
        if autonomic:
            from ..autonomic import AutonomicManager

            self.autonomic = AutonomicManager(self).attach()

    # -- services ---------------------------------------------------------------
    def _make_journal(self) -> Optional[Any]:
        """A fresh per-bundle directory journal when the directory has a
        host of its own to lose."""
        if self.directory_host is None:
            return None
        from ..coherence.journal import DirectoryJournal

        return DirectoryJournal()

    @property
    def primary(self) -> ServiceBundle:
        """The first service added; raises before any service exists."""
        if self._primary is None:
            raise DeploymentError("no service registered")
        return self._primary

    def bundle_for(self, service_name: str) -> ServiceBundle:
        try:
            return self._bundles[service_name]
        except KeyError:
            raise DeploymentError(f"no service registered as {service_name!r}") from None

    def bundles(self) -> List[ServiceBundle]:
        return list(self._bundles.values())

    # -- single-service shorthands (the primary bundle) ------------------------
    @property
    def spec(self) -> ServiceSpec:
        return self.primary.spec

    @property
    def planner(self) -> Planner:
        return self.primary.planner

    @property
    def generic_server(self) -> GenericServer:
        return self.primary.server

    @property
    def coherence(self) -> CoherenceDirectory:
        return self.primary.coherence

    @property
    def instances(self) -> Dict[Tuple, RuntimeComponent]:
        return self.primary.instances

    def add_service(
        self,
        name: str,
        spec: ServiceSpec,
        translator: CredentialTranslator,
        default_interface: str,
        *,
        component_classes: Optional[Dict[str, Type[RuntimeComponent]]] = None,
        algorithm: str = "exhaustive",
        server_node: Optional[str] = None,
        code_base_node: Optional[str] = None,
        conflict_map: Optional[ConflictMap] = None,
        flush_policy: str = "never",
        attributes: Optional[Dict[str, Any]] = None,
        proxy_code_bytes: int = 60_000,
    ) -> ServiceBundle:
        """Host a service on this runtime (step 1 of Figure 1).

        The service gets its own generic-server instance (on
        ``server_node``, else the runtime's), planner and coherence
        directory; the simulator, network and wrappers are shared.
        ``component_classes`` maps spec unit names to the runtime
        classes instantiated for them; every data-view replica the
        service deploys flushes by ``flush_policy`` (a
        :func:`~repro.coherence.policy_from_name` string).  The first
        service added becomes :attr:`primary`.
        """
        if name in self._bundles:
            raise DeploymentError(f"service {name!r} already registered")
        spec.interface(default_interface)  # raises if unknown
        policy_from_name(flush_policy)  # raises if unknown
        classes = dict(component_classes or {})
        for unit_name in classes:
            spec.unit(unit_name)  # raises if unknown
        server_node = server_node or self.server_node
        bundle = ServiceBundle(
            name=name,
            spec=spec,
            planner=Planner(
                spec, self.network, translator, algorithm=algorithm,
                obs=self.obs, plan_cache=self._plan_cache_setting,
            ),
            server=None,  # type: ignore[arg-type]  (set right below)
            coherence=CoherenceDirectory(
                conflict_map, obs=self.obs, journal=self._make_journal(),
            ),
            default_interface=default_interface,
            code_base_node=code_base_node or server_node,
            component_classes=classes,
            flush_policy=flush_policy,
        )
        bundle.server = GenericServer(self, server_node, bundle)
        self._bundles[name] = bundle
        if self._primary is None:
            self._primary = bundle
        self.lookup.register(name, attributes, proxy_code_bytes, home_node=server_node)
        return bundle

    def default_interface(self, service_name: str) -> str:
        return self.bundle_for(service_name).default_interface

    def next_instance_id(self, placement: Placement) -> str:
        return f"{placement.label()}#{next(self._ids)}"

    # -- bootstrap ----------------------------------------------------------------
    def preinstall(
        self, unit_name: str, node: str, service: Optional[str] = None
    ) -> RuntimeComponent:
        """Stand up an already-running component (no simulated cost).

        Models service state that predates the observation window, e.g.
        the primary MailServer in New York.  Registers the instance as
        the coherence primary of its own family.
        """
        bundle = self.bundle_for(service) if service else self.primary
        placement = bundle.planner.preinstall(unit_name, node)
        unit = bundle.spec.unit(unit_name)
        cls = bundle.component_class(unit_name)
        instance = cls(
            runtime=self,
            unit=unit,
            node=self.transport.node(node),
            factor_values=dict(placement.factor_values),
            instance_id=self.next_instance_id(placement),
        )
        instance.bundle = bundle
        self.transport.node(node).installed[instance.instance_id] = instance
        bundle.instances[placement.key] = instance
        if not isinstance(unit, ViewDef):
            bundle.coherence.register_primary(unit_name, instance)
        instance.on_install()
        instance.on_linked()
        return instance

    # -- client path ------------------------------------------------------------
    def client_connect(
        self,
        client_node: str,
        context: Optional[Dict[str, Any]] = None,
        service: Optional[str] = None,
        request_rate: float = 0.0,
        algorithm: Optional[str] = None,
    ) -> Generator[Any, Any, ServiceProxy]:
        """Process generator: lookup, download proxy, bind (steps 2-5).

        Traced as a ``client_connect`` span with ``lookup`` and ``bind``
        children (the latter fanning out into ``access`` → ``plan`` /
        ``deploy`` → ``install`` spans) — together the one-time cost
        timeline of Figure 1 / §4.2.
        """
        tracer = self.obs.tracer
        t0 = self.sim.now
        name = service or self.primary.name
        span = tracer.start_span(
            "client_connect", client_node=client_node, service=name
        )
        try:
            lookup_span = tracer.start_span(
                "lookup", parent=span, client_node=client_node
            )
            proxy = yield from self.lookup.lookup(client_node, name=name)
            lookup_span.finish()
            lookup_ms = self.sim.now - t0
            service_proxy = yield from proxy.bind(
                context=context,
                request_rate=request_rate,
                algorithm=algorithm,
                parent_span=span,
            )
        except BaseException as exc:
            span.finish(status="error", error=repr(exc))
            raise
        assert proxy.bind_record is not None
        proxy.bind_record.lookup_ms = lookup_ms
        span.finish(total_ms=self.sim.now - t0)
        m = self.obs.metrics
        if m.enabled:
            m.inc("smock.client_connects", 1, service=name)
            m.observe("smock.connect_sim_ms", self.sim.now - t0, service=name)
            m.observe("smock.lookup_sim_ms", lookup_ms, service=name)
        return service_proxy

    def deploy_manual(
        self, plan: DeploymentPlan, service: Optional[str] = None
    ) -> DeploymentRecord:
        """Execute a hand-written plan immediately (static scenarios).

        Bypasses the planner entirely — static deployments are how the
        paper's SS* baselines were "hand-generated", and they may violate
        constraints the planner would reject (that is the point of the
        SS scenario).  Runs the deployment to completion on the
        simulator.
        """
        bundle = self.bundle_for(service) if service else self.primary
        proc = self.sim.process(
            self.deployer.execute(plan, bundle), name="manual-deploy"
        )
        self.sim.run_until_complete(proc)
        return proc.value

    # -- fault tolerance -----------------------------------------------------------
    def enable_self_healing(
        self,
        heartbeat_interval_ms: float = 250.0,
        miss_threshold: int = 3,
        incremental: bool = True,
    ) -> Any:
        """Wire up the full recovery loop: monitor → detector → replanner.

        Returns the :class:`~repro.smock.replanner.ReplanManager`; the
        monitor, detector and manager are also stored on the runtime as
        ``monitor`` / ``failure_detector`` / ``replanner``.  Client
        bindings still need to be registered (``replanner.track`` /
        ``track_access``) to be failed over.  ``incremental`` controls
        whether liveness-triggered replan rounds seed their search from
        each binding's previous plan (see
        :mod:`repro.planner.incremental`).  Idempotent: a second call
        returns the existing manager.  A dormant replanner created by
        the autonomic manager (no monitor polling, no heartbeats) is
        upgraded in place — its bindings and autonomic hooks survive.
        """
        existing = self.replanner
        if existing is not None and self.failure_detector is not None:
            return existing
        from ..faults import FailureDetector
        from ..network.monitor import NetworkMonitor
        from .replanner import ReplanManager

        if existing is not None:
            monitor = existing.monitor
            monitor.poll_interval_ms = MONITOR_POLL_MS
            replanner = existing
            replanner.incremental = incremental
        else:
            monitor = NetworkMonitor(self.sim, self.network, MONITOR_POLL_MS)
            replanner = ReplanManager(self, monitor, incremental=incremental)
        detector = FailureDetector(
            self,
            monitor,
            interval_ms=heartbeat_interval_ms,
            miss_threshold=miss_threshold,
        )
        monitor.start()
        detector.start()
        self.monitor = monitor
        self.failure_detector = detector
        self.replanner = replanner
        # Lease lapses become monitor events: a service that stops
        # renewing triggers a replan/rebind round through the same
        # pipeline as heartbeat-detected node death (the monitor dedups,
        # so the two channels never double-fire a round).
        self.lookup.on_lease_event = self._report_lease_event
        return replanner

    def _report_lease_event(self, name: str, alive: bool) -> None:
        from ..network.monitor import ChangeEvent

        self.monitor.report(
            ChangeEvent(
                time_ms=self.sim.now,
                kind="service",
                subject=name,
                attribute="lease",
                old=(not alive),
                new=alive,
            )
        )

    # -- convenience ---------------------------------------------------------------
    def run(self, generator: Generator, name: str = "runtime-task") -> Any:
        """Run one process generator to completion on the simulator."""
        proc = self.sim.process(generator, name=name)
        return self.sim.run_until_complete(proc)

    def instance_of(
        self, unit_name: str, node: Optional[str] = None, service: Optional[str] = None
    ) -> RuntimeComponent:
        """Find a live instance by unit (and optionally node/service)."""
        bundle = self.bundle_for(service) if service else self.primary
        for (unit, inode, _factors), inst in bundle.instances.items():
            if unit == unit_name and (node is None or inode == node):
                return inst
        raise KeyError(
            f"no live instance of {unit_name!r}" + (f" on {node!r}" if node else "")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(b.instances) for b in self.bundles())
        return (
            f"<SmockRuntime services={sorted(self._bundles)} "
            f"instances={total} t={self.sim.now:.1f}ms>"
        )
