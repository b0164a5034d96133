"""Plan execution: turning a :class:`DeploymentPlan` into live components
(step 5 of Figure 1).

The deployer resolves reused placements against the runtime's instance
registry, installs new placements through the target nodes' wrappers
(code download + startup), wires the planned linkages, and has the
service's bundle register data-view replicas with its coherence
directory.  Install order is servers-first so a component's required
interfaces are bindable the moment it starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from ..planner import DeploymentPlan, Placement
from ..spec import ViewDef
from .component import RuntimeComponent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .bundle import ServiceBundle
    from .runtime import SmockRuntime

__all__ = ["Deployer", "DeploymentRecord", "DeploymentError"]


class DeploymentError(RuntimeError):
    """A plan could not be realized (missing class, missing instance...)."""


@dataclass
class DeploymentRecord:
    """What one plan execution did, with timings (for §4.2 cost analysis)."""

    plan: DeploymentPlan
    root_instance: RuntimeComponent
    new_instances: List[RuntimeComponent] = field(default_factory=list)
    started_ms: float = 0.0
    finished_ms: float = 0.0
    #: per-instance install duration, ms
    install_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return self.finished_ms - self.started_ms


class Deployer:
    """Executes deployment plans against the live runtime."""

    def __init__(self, runtime: "SmockRuntime") -> None:
        self.runtime = runtime
        self.deployments: List[DeploymentRecord] = []

    def execute(
        self, plan: DeploymentPlan, bundle: "ServiceBundle", parent_span: Any = None
    ) -> Generator[Any, Any, DeploymentRecord]:
        """Process generator: install, wire, and register a plan.

        ``bundle`` selects which hosted service's spec/classes/instances
        apply.  Traced as a ``deploy`` span with one ``install`` child
        per freshly installed component (node-attributed, so trace
        consumers can break §4.2 deployment cost down per target host).
        """
        runtime = self.runtime
        sim = runtime.sim
        tracer = runtime.obs.tracer
        deploy_span = tracer.start_span(
            "deploy",
            parent=parent_span,
            client_node=plan.client_node,
            placements=len(plan.placements),
        )
        started = sim.now
        instances: Dict[int, RuntimeComponent] = {}
        new_instances: List[RuntimeComponent] = []
        install_ms: Dict[str, float] = {}

        # Servers first: topological order over the linkage DAG (a
        # placement installs only after everything it requires is up).
        # Covers multi-root manual plans whose extra roots a BFS from
        # plan.root would never reach.
        n = len(plan.placements)
        deps = {
            i: {l.server for l in plan.linkages if l.client == i} for i in range(n)
        }
        order: List[int] = []
        done: set = set()
        while len(order) < n:
            progress = False
            for i in range(n):
                if i not in done and deps[i] <= done:
                    order.append(i)
                    done.add(i)
                    progress = True
            if not progress:
                deploy_span.finish(status="error", error="cyclic linkages")
                raise DeploymentError("plan linkages are cyclic")
        for idx in order:
            placement = plan.placements[idx]
            existing = bundle.instances.get(placement.key)
            if placement.reused:
                if existing is None:
                    deploy_span.finish(
                        status="error", error=f"missing reused {placement.label()}"
                    )
                    raise DeploymentError(
                        f"plan reuses {placement.label()} but no such instance is running"
                    )
                instances[idx] = existing
                continue
            if existing is not None:
                # Another client's deployment already realized this
                # placement; share it.
                instances[idx] = existing
                continue
            t0 = sim.now
            install_span = tracer.start_span(
                "install",
                parent=deploy_span,
                unit=placement.unit,
                node=placement.node,
            )
            try:
                instance = yield from self._install(placement, bundle)
            except BaseException as exc:
                install_span.finish(status="error", error=repr(exc))
                deploy_span.finish(status="error", error=repr(exc))
                raise
            install_span.finish(instance_id=instance.instance_id)
            install_ms[instance.instance_id] = sim.now - t0
            m = runtime.obs.metrics
            if m.enabled:
                m.inc("smock.installs", 1, node=placement.node)
                m.observe("smock.install_sim_ms", sim.now - t0, unit=placement.unit)
            instances[idx] = instance
            new_instances.append(instance)
            bundle.instances[placement.key] = instance

        # Wire linkages (client side binds a stub to the server instance).
        # A plan's wiring is authoritative for the interfaces it touches:
        # stale stubs from a previous deployment of the same client (left
        # over after replanning) are dropped, not shadowed.
        wired: set = set()
        for linkage in plan.linkages:
            client = instances[linkage.client]
            server = instances[linkage.server]
            key = (id(client), linkage.interface)
            if key not in wired:
                client.servers[linkage.interface] = []
                wired.add(key)
            if not any(
                stub.server is server
                for stub in client.servers.get(linkage.interface, ())
            ):
                wrapper = runtime.wrappers[client.node_name]
                wrapper.connect(client, linkage.interface, server)

        # Coherence registration for freshly installed data views.
        for idx, instance in instances.items():
            placement = plan.placements[idx]
            if placement.reused or instance not in new_instances:
                continue
            unit = bundle.spec.unit(placement.unit)
            if isinstance(unit, ViewDef) and unit.kind == "data":
                bundle.register_replica(instance, sim.now)

        for instance in new_instances:
            instance.on_linked()

        record = DeploymentRecord(
            plan=plan,
            root_instance=instances[plan.root],
            new_instances=new_instances,
            started_ms=started,
            finished_ms=sim.now,
            install_ms=install_ms,
        )
        self.deployments.append(record)
        deploy_span.finish(new_instances=len(new_instances))
        runtime.obs.metrics.observe("smock.deploy_sim_ms", record.total_ms)
        return record

    def _install(
        self, placement: Placement, bundle: Any
    ) -> Generator[Any, Any, RuntimeComponent]:
        runtime = self.runtime
        unit = bundle.spec.unit(placement.unit)
        cls = bundle.component_class(placement.unit)
        wrapper = runtime.wrappers[placement.node]
        instance_id = runtime.next_instance_id(placement)
        instance = yield from wrapper.install(
            unit,
            cls,
            dict(placement.factor_values),
            instance_id,
            code_from=bundle.code_base_node,
        )
        instance.bundle = bundle
        return instance
