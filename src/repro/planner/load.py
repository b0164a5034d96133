"""The planner's load model (condition 3, §3.3).

"Condition 3 computes the expected load on the involved node(s) and link
by scaling the input request rate with the work performed by the
component on behalf of each request (for the node load), and the
component's RRF (for the link load)."

Given a plan and the client request rate, :func:`compute_loads` derives:

- per-placement inbound request rates (the root sees the client rate;
  each linkage below a component carries ``inbound * RRF``);
- per-node CPU demand (work-units/sec);
- per-link bit rates (requests + responses, each hop of each path).

:func:`check_loads` compares those against node capacity, component
capacity, and link bandwidth, returning the violations.

:func:`finish_plan` is where every search algorithm turns a complete
candidate into a plan: it checks condition 3 at :func:`plan_rate` (the
request's rate, or else the chosen root's declared ``RequestRate``, the
rate :meth:`~repro.planner.planner.Planner.commit` reserves) and scores
what passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .compat import PlanningContext
from .plan import DeploymentPlan, Placement, PlannedLinkage, PlanRequest

if TYPE_CHECKING:
    from .objectives import Objective

__all__ = [
    "LoadReport", "compute_loads", "check_loads", "config_of", "config_covered",
    "plan_rate", "finish_plan",
]


def config_of(plan: DeploymentPlan, idx: int):
    """The content identity of a placement: unit name + bound factors.

    Two replicas with the same configuration hold the same (subset of)
    state, so a request that already passed through one cannot be
    absorbed by another — RRF applies only at the *first* occurrence of
    a configuration along the path from the root.
    """
    p = plan.placements[idx]
    return (p.unit, p.factor_values)


def config_covered(ctx: PlanningContext, seen: frozenset, cfg) -> bool:
    """Is ``cfg``'s content already covered by a traversed configuration?

    A view configuration covers another of the *same unit* when every
    factor dominates under the factor property's match ordering: with
    ``TrustLevel`` declared AtLeast, a ``ViewMailServer[TrustLevel=3]``
    (storing sensitivity <= 3) covers ``ViewMailServer[TrustLevel=2]``.
    A request stream that already traversed the superset view finds
    nothing extra in the subset replica, so its RRF does not apply —
    this is the paper's remark that "in practice we expect [RRF's] value
    to depend on the service properties" made concrete.
    """
    if cfg in seen:
        return True
    unit, factors = cfg
    for seen_unit, seen_factors in seen:
        if seen_unit != unit or len(seen_factors) != len(factors):
            continue
        seen_map = dict(seen_factors)
        dominated = True
        for prop, value in factors:
            seen_value = seen_map.get(prop)
            if seen_value is None:
                dominated = False
                break
            mode = ctx.match_mode(prop)
            if mode == "at_least":
                ok = seen_value >= value
            elif mode == "at_most":
                ok = seen_value <= value
            else:
                ok = seen_value == value
            if not ok:
                dominated = False
                break
        if dominated:
            return True
    return False


@dataclass
class LoadReport:
    """Computed steady-state loads of a deployment plan."""

    #: inbound requests/sec per placement index
    inbound: Dict[int, float] = field(default_factory=dict)
    #: requests/sec carried per linkage (client, server, interface)
    linkage_rates: Dict[Tuple[int, int, str], float] = field(default_factory=dict)
    #: CPU work-units/sec demanded per node
    node_cpu: Dict[str, float] = field(default_factory=dict)
    #: megabits/sec carried per physical link name
    link_mbps: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def compute_loads(
    ctx: PlanningContext, plan: DeploymentPlan, request_rate: float
) -> LoadReport:
    """Propagate the client request rate through the plan's linkages."""
    report = LoadReport()
    inbound = report.inbound = {i: 0.0 for i in range(len(plan.placements))}

    # DFS from the root, carrying the set of view configurations already
    # traversed: a component's RRF reduces flow only the first time its
    # configuration appears on the path (see config_of).  Plans are
    # acyclic by construction, so the walk terminates.  It keeps an
    # explicit stack because a recursive closure is a reference cycle;
    # an entry adds its linkage's rate just before the walk enters its
    # subtree, so rates are summed in depth-first order.
    out_edges: Dict[int, List] = {}
    for link in plan.linkages:
        out_edges.setdefault(link.client, []).append(link)

    stack: List[Tuple[Optional[PlannedLinkage], int, float, frozenset]] = [
        (None, plan.root, request_rate, frozenset())
    ]
    while stack:
        via, idx, rate, seen = stack.pop()
        if via is not None:
            key = (via.client, via.server, via.interface)
            report.linkage_rates[key] = report.linkage_rates.get(key, 0.0) + rate
        inbound[idx] += rate
        cfg = config_of(plan, idx)
        if config_covered(ctx, seen, cfg):
            out_rate = rate  # a covered replica absorbs nothing more
        else:
            out_rate = rate * ctx.spec.unit(plan.placements[idx].unit).behaviors.rrf
        seen = seen | {cfg}
        for link in reversed(out_edges.get(idx, ())):
            stack.append((link, link.server, out_rate, seen))

    # Node CPU demand.
    for idx, placement in enumerate(plan.placements):
        unit = ctx.spec.unit(placement.unit)
        demand = inbound[idx] * unit.behaviors.cpu_per_request
        report.node_cpu[placement.node] = report.node_cpu.get(placement.node, 0.0) + demand

    # Link traffic: every hop of every linkage path carries the messages.
    for (client, server, _iface), rate in report.linkage_rates.items():
        client_unit = ctx.spec.unit(plan.placements[client].unit)
        bytes_round = (
            client_unit.behaviors.bytes_per_request
            + client_unit.behaviors.bytes_per_response
        )
        mbps = rate * bytes_round * 8 / 1e6
        path = ctx.path(plan.placements[client].node, plan.placements[server].node)
        for hop in path.hops:
            report.link_mbps[hop.name] = report.link_mbps.get(hop.name, 0.0) + mbps

    return report


def check_loads(
    ctx: PlanningContext, plan: DeploymentPlan, request_rate: float
) -> LoadReport:
    """Compute loads and record capacity violations (condition 3)."""
    report = compute_loads(ctx, plan, request_rate)

    # Component capacity.
    for idx, placement in enumerate(plan.placements):
        unit = ctx.spec.unit(placement.unit)
        rate = report.inbound.get(idx, 0.0)
        if rate > unit.behaviors.capacity:
            report.violations.append(
                f"component {placement.label()} over capacity: "
                f"{rate:.1f} > {unit.behaviors.capacity:.1f} req/s"
            )

    # Node CPU.
    for node_name, demand in report.node_cpu.items():
        node = ctx.network.node(node_name)
        if demand > node.free_cpu:
            report.violations.append(
                f"node {node_name} over CPU: {demand:.1f} > {node.free_cpu:.1f} units/s"
            )

    # Link bandwidth.
    for link_name, mbps in report.link_mbps.items():
        link = ctx.network.link_named(link_name)
        if mbps > link.free_mbps:
            report.violations.append(
                f"link {link_name} over bandwidth: {mbps:.2f} > {link.free_mbps:.2f} Mb/s"
            )

    return report


def plan_rate(ctx: PlanningContext, plan: DeploymentPlan, request_rate: float) -> float:
    """The request rate a plan must sustain: ``request_rate`` if positive,
    else its root unit's declared ``RequestRate`` (1 req/s if none)."""
    if request_rate > 0:
        return request_rate
    return ctx.spec.unit(plan.placements[plan.root].unit).behaviors.request_rate or 1.0


def finish_plan(
    ctx: PlanningContext,
    request: PlanRequest,
    objective: "Objective",
    placements: List[Placement],
    linkages: List[PlannedLinkage],
) -> Optional[DeploymentPlan]:
    """A complete candidate rooted at ``placements[0]`` as a scored plan,
    or None if it violates condition 3 at :func:`plan_rate`."""
    plan = DeploymentPlan(placements, linkages, 0, request.client_node)
    rate = plan_rate(ctx, plan, request.request_rate)
    report = check_loads(ctx, plan, rate)
    if not report.ok:
        return None
    plan.score = objective.score(ctx, plan, rate, report)
    return plan
