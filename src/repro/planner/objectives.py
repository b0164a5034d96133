"""Global objectives steering plan selection (§3.3).

"Of the ones that remain, the planner picks the one that optimizes a
global objective (maximum capacity, minimum deployment cost, etc.)."

Scores are tuples compared lexicographically, **lower is better**.
Every objective appends the same deterministic tie-breakers after its
primary terms: number of view units (prefer full-featured components
when otherwise equal), number of *new* placements (prefer reuse), total
placements, and a stable textual key — so planning is reproducible
across runs and algorithms.

Objectives with ``supports_pruning`` expose per-edge / per-placement
additive, non-negative partial costs that branch-and-bound search uses
as a lower bound.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..spec import ComponentDef
from .compat import PlanningContext
from .load import LoadReport, compute_loads
from .plan import DeploymentPlan

__all__ = [
    "Objective",
    "ExpectedLatency",
    "DeploymentCost",
    "MaxCapacity",
    "tie_breakers",
]


def tie_breakers(ctx: PlanningContext, plan: DeploymentPlan) -> Tuple[float, ...]:
    """Deterministic secondary terms shared by all objectives."""
    n_views = sum(1 for p in plan.placements if ctx.spec.unit(p.unit).is_view)
    n_new = len(plan.new_placements())
    return (float(n_views), float(n_new), float(len(plan.placements)))


def _stable_key(plan: DeploymentPlan) -> float:
    """A tiny deterministic perturbation from the placement labels.

    Uses crc32, not ``hash()``: string hashing is randomized per process
    and would make tie-broken plans differ across runs.
    """
    text = "|".join(sorted(p.label() for p in plan.placements))
    return (zlib.crc32(text.encode()) % 997) * 1e-12


class Objective:
    """Base objective; subclasses implement :meth:`score`."""

    name = "abstract"
    supports_pruning = False
    #: penalty (in primary-score units) for serving the client through a
    #: *view* root: an object view restricts functionality, so a plan
    #: rooted at one is only chosen when no full-featured component can
    #: install at the client's site (Figure 6: Seattle gets
    #: ViewMailClient only because MailClient's conditions fail there).
    root_view_penalty = 1e6

    @property
    def cache_key(self) -> Tuple:
        """Hashable identity used by :class:`~repro.planner.cache.
        PlanCache` keys.  Subclasses with constructor parameters that
        change scoring must extend this tuple."""
        return (self.name,)

    def root_floor(self, unit: ComponentDef) -> float:
        """The primary-score term every plan rooted at ``unit`` pays:
        :attr:`root_view_penalty` for a view, ``0.0`` otherwise.

        With ``supports_pruning`` every other primary term is
        non-negative, so this is also a lower bound on the primary score
        of any plan rooted at ``unit``: ``exhaustive`` starts a root's
        branch-and-bound from it, and ``dp_chain`` skips a chain whose
        root's floor lies above its incumbent's primary score."""
        return self.root_view_penalty if unit.is_view else 0.0

    def root_penalty(self, ctx: PlanningContext, plan: DeploymentPlan) -> float:
        return self.root_floor(ctx.spec.unit(plan.placements[plan.root].unit))

    def score(
        self,
        ctx: PlanningContext,
        plan: DeploymentPlan,
        request_rate: float,
        report: Optional[LoadReport] = None,
    ) -> Tuple[float, ...]:
        raise NotImplementedError

    # -- optional incremental costs for branch-and-bound -------------------
    def edge_weight(
        self,
        ctx: PlanningContext,
        client_unit: ComponentDef,
        client_node: str,
        server_node: str,
    ) -> float:
        """What one traversal of a linkage adds to the primary score
        (>= 0).  The hook subclasses override: it reads only the two
        ends and the route between them, so ``dp_chain`` keeps it in its
        pair rows for as long as the network's structure stands."""
        return 0.0

    def edge_cost(
        self,
        ctx: PlanningContext,
        client_unit: ComponentDef,
        client_node: str,
        server_node: str,
        traversal_prob: float,
    ) -> float:
        """Additive lower-bound contribution of one linkage (>= 0):
        :meth:`edge_weight` times the probability that a request
        traverses it.  Defined here once, for every objective."""
        return traversal_prob * self.edge_weight(
            ctx, client_unit, client_node, server_node
        )

    def placement_cost(
        self, ctx: PlanningContext, unit: ComponentDef, node: str, reused: bool
    ) -> float:
        """Additive lower-bound contribution of one placement (>= 0)."""
        return 0.0


def round_trip_ms(
    ctx: PlanningContext, client_unit: ComponentDef, client_node: str, server_node: str
) -> float:
    """Analytic request/response round trip for one linkage."""
    b = client_unit.behaviors
    return ctx.round_trip_ms(
        client_node, server_node, b.bytes_per_request, b.bytes_per_response
    )


class ExpectedLatency(Objective):
    """Expected client-perceived per-request latency, in ms.

    Each linkage contributes ``traversal_probability x round_trip``,
    where the traversal probability is the product of the RRFs of the
    components above it (a cache with RRF 0.2 shields 80% of requests
    from its upstream links) — plus per-request CPU service time at the
    serving node.
    """

    name = "expected_latency"
    supports_pruning = True

    def edge_weight(
        self,
        ctx: PlanningContext,
        client_unit: ComponentDef,
        client_node: str,
        server_node: str,
    ) -> float:
        return round_trip_ms(ctx, client_unit, client_node, server_node)

    def placement_cost(
        self, ctx: PlanningContext, unit: ComponentDef, node: str, reused: bool
    ) -> float:
        node_info = ctx.network.node(node)
        return unit.behaviors.cpu_per_request / node_info.cpu_capacity * 1e3

    def score(
        self,
        ctx: PlanningContext,
        plan: DeploymentPlan,
        request_rate: float,
        report: Optional[LoadReport] = None,
    ) -> Tuple[float, ...]:
        if report is None:
            report = compute_loads(ctx, plan, max(request_rate, 1.0))
        base_rate = max(report.inbound.get(plan.root, 0.0), 1e-12)
        total = 0.0
        # Linkage latencies weighted by traversal probability.
        for (client, server, _iface), rate in report.linkage_rates.items():
            prob = rate / base_rate
            client_unit = ctx.spec.unit(plan.placements[client].unit)
            total += prob * round_trip_ms(
                ctx, client_unit, plan.placements[client].node, plan.placements[server].node
            )
        # CPU service time at each placement, weighted by visit probability.
        for idx, placement in enumerate(plan.placements):
            prob = report.inbound.get(idx, 0.0) / base_rate
            unit = ctx.spec.unit(placement.unit)
            node = ctx.network.node(placement.node)
            total += prob * unit.behaviors.cpu_per_request / node.cpu_capacity * 1e3
        plan.metrics["expected_latency_ms"] = total
        total += self.root_penalty(ctx, plan)
        return (total, *tie_breakers(ctx, plan), _stable_key(plan))


class DeploymentCost(Objective):
    """Primary: time to ship code bundles for *new* placements, in ms.

    Models the one-time cost of remote installation: each new placement
    transfers its code bundle from the service's home node (where the
    generic server holds the component code base) to the target node.
    Expected latency is appended as a secondary criterion so ties choose
    the best-performing of the cheapest deployments.
    """

    name = "deployment_cost"
    supports_pruning = True

    def __init__(self, home_node: str, latency: Optional[ExpectedLatency] = None) -> None:
        self.home_node = home_node
        self._latency = latency or ExpectedLatency()

    @property
    def cache_key(self) -> Tuple:
        return (self.name, self.home_node)

    def placement_cost(
        self, ctx: PlanningContext, unit: ComponentDef, node: str, reused: bool
    ) -> float:
        if reused:
            return 0.0
        if node == self.home_node:
            return 0.0
        if not ctx.reachable(self.home_node, node):
            return math.inf  # a partition cut the node off from the code base
        path = ctx.path(self.home_node, node)
        return path.transfer_time_ms(unit.behaviors.code_size_bytes)

    def score(
        self,
        ctx: PlanningContext,
        plan: DeploymentPlan,
        request_rate: float,
        report: Optional[LoadReport] = None,
    ) -> Tuple[float, ...]:
        cost = sum(
            self.placement_cost(ctx, ctx.spec.unit(p.unit), p.node, p.reused)
            for p in plan.placements
        )
        plan.metrics["deployment_cost_ms"] = cost
        cost += self.root_penalty(ctx, plan)
        latency_score = self._latency.score(ctx, plan, request_rate, report)
        return (cost, latency_score[0], *tie_breakers(ctx, plan), _stable_key(plan))


class MaxCapacity(Objective):
    """Primary: maximize sustainable request rate (scored as negative).

    The bottleneck is the smallest ratio of remaining capacity to
    per-unit-load across components, nodes and links; higher headroom is
    better, so the score term is its negation.  Not prunable (headroom
    is a min, not an additive sum).
    """

    name = "max_capacity"
    supports_pruning = False

    def score(
        self,
        ctx: PlanningContext,
        plan: DeploymentPlan,
        request_rate: float,
        report: Optional[LoadReport] = None,
    ) -> Tuple[float, ...]:
        probe = max(request_rate, 1.0)
        if report is None or not report.inbound:
            report = compute_loads(ctx, plan, probe)
        headroom = float("inf")
        for idx, placement in enumerate(plan.placements):
            unit = ctx.spec.unit(placement.unit)
            per_req = report.inbound.get(idx, 0.0) / probe
            if per_req > 0 and unit.behaviors.capacity != float("inf"):
                headroom = min(headroom, unit.behaviors.capacity / per_req)
        for node_name, demand in report.node_cpu.items():
            per_req = demand / probe
            if per_req > 0:
                headroom = min(headroom, ctx.network.node(node_name).free_cpu / per_req)
        for link_name, mbps in report.link_mbps.items():
            per_req = mbps / probe
            if per_req > 0:
                headroom = min(
                    headroom, ctx.network.link_named(link_name).free_mbps / per_req
                )
        if headroom == float("inf"):
            headroom = 1e18
        plan.metrics["capacity_req_s"] = headroom
        return (
            -headroom + self.root_penalty(ctx, plan),
            *tie_breakers(ctx, plan),
            _stable_key(plan),
        )
