"""The generic server (Figure 1, steps 3-5).

"Requests for service access are sent through the proxy to a generic
server, which consults the planning module to decide on an appropriate
selection and placement of service components."

Planning is charged as CPU work on the generic server's host node, so
the one-time costs of §4.2 (proxy download + planning + deployment +
startup) appear on the simulated clock.  The framework "ensures that the
generic server does not become a bottleneck by spreading out requests
for different services among multiple instances" — each service gets its
own GenericServer in this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from ..planner import DeploymentPlan, PlanRequest, PlanningError
from .deployment import DeploymentRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .bundle import ServiceBundle
    from .runtime import SmockRuntime

__all__ = ["GenericServer", "AccessRecord", "DEFAULT_PLANNING_WORK"]

#: CPU work units charged per planning request (≈2 s on a 1000-unit/s host)
DEFAULT_PLANNING_WORK = 2000.0

#: request/response sizes for the access protocol, bytes
ACCESS_REQUEST_BYTES = 2_048
ACCESS_RESPONSE_BYTES = 4_096


@dataclass
class AccessRecord:
    """One client-access handling, with its cost breakdown (§4.2)."""

    client_node: str
    context: Dict[str, Any]
    plan: DeploymentPlan
    planning_ms: float
    deployment: DeploymentRecord

    @property
    def total_ms(self) -> float:
        return self.planning_ms + self.deployment.total_ms


class GenericServer:
    """Handles service-access requests for one registered service."""

    def __init__(
        self,
        runtime: "SmockRuntime",
        host_node: str,
        bundle: "ServiceBundle",
    ) -> None:
        self.runtime = runtime
        self.host_node = host_node
        self.bundle = bundle
        self.accesses: List[AccessRecord] = []

    def handle_access(
        self,
        client_node: str,
        context: Dict[str, Any],
        interface: str,
        request_rate: float = 0.0,
        algorithm: Optional[str] = None,
        parent_span: Any = None,
    ) -> Generator[Any, Any, AccessRecord]:
        """Process generator: plan + deploy for one client request.

        Returns the access record whose deployment's root instance the
        proxy should bind to.  Raises :class:`PlanningError` if no valid
        deployment exists.
        """
        runtime = self.runtime
        sim = runtime.sim
        bundle = self.bundle
        tracer = runtime.obs.tracer
        access_span = tracer.start_span(
            "access",
            parent=parent_span,
            client_node=client_node,
            server_node=self.host_node,
            interface=interface,
        )

        # Step 4: compute the partitioning.  Planning runs on this host.
        t0 = sim.now
        plan_span = tracer.start_span(
            "plan", parent=access_span, server_node=self.host_node
        )
        try:
            yield from runtime.transport.node(self.host_node).execute(
                DEFAULT_PLANNING_WORK
            )
            request = PlanRequest(
                interface=interface,
                client_node=client_node,
                context=dict(context),
                request_rate=request_rate,
            )
            # attach(): the planner's own span becomes a child of "plan".
            with tracer.attach(plan_span):
                plan = bundle.planner.plan(request, algorithm=algorithm)
        except BaseException as exc:
            plan_span.finish(status="error", error=repr(exc))
            access_span.finish(status="error", error=repr(exc))
            raise
        planning_ms = sim.now - t0
        plan_span.finish(planning_ms=planning_ms)

        # Step 5: deploy components via the node wrappers.
        try:
            record = yield from runtime.deployer.execute(
                plan, bundle, parent_span=access_span
            )
        except BaseException as exc:
            access_span.finish(status="error", error=repr(exc))
            raise
        bundle.planner.commit(plan, request_rate)
        access_span.finish()
        m = runtime.obs.metrics
        if m.enabled:
            m.inc("smock.accesses", 1, server_node=self.host_node)
            m.observe("smock.planning_sim_ms", planning_ms)

        access = AccessRecord(
            client_node=client_node,
            context=dict(context),
            plan=plan,
            planning_ms=planning_ms,
            deployment=record,
        )
        self.accesses.append(access)
        return access
