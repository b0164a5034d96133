"""The exhaustive combined planner (§3.3).

"Currently, our planner implementation combines these two steps
[linkage enumeration and network mapping] and exhaustively searches for
a deployment that satisfies the constraints."

The search interleaves linkage construction with placement: starting
from candidate roots (units implementing the requested interface), it
repeatedly takes an unsatisfied required interface and either links it
to an already-placed compatible provider (within the plan or reused from
the existing deployment state) or instantiates a new provider on some
node — checking condition 1 (:meth:`PlanningContext.instantiate
<repro.planner.compat.PlanningContext.instantiate>`) and condition 2
(:meth:`~repro.planner.compat.PlanningContext.link_ok`, and
:meth:`~repro.planner.compat.PlanningContext.root_ok` for the root) as
it goes, and condition 3 on each complete candidate
(:func:`~repro.planner.load.finish_plan`).  A branch-and-bound lower
bound from the objective prunes dominated partial plans.  A plan holds
at most ``request.max_units`` placements, installed ones included.

Any component graph is searched, not only chains: a unit requiring
several interfaces (fan-out) puts each on the frontier.  That makes this
the exact reference the chain-only :func:`~repro.planner.dp_chain.
plan_dp_chain` is checked against — exact with pruning off (an
objective whose ``supports_pruning`` is false), because the bound
charges a placement its full CPU time while the score weights it by
visit probability, which can prune the optimum below a caching view.

Installed placements (from the :class:`~repro.planner.plan.
DeploymentState`) are treated as *already wired*: linking to one — or
rooting the plan at one — records the placement alone without reopening
its requirements.  Incremental replanning exploits this by seeding the
state with a previous plan's survivors (see
:mod:`repro.planner.incremental`, whose graft step re-attaches the
downstream wiring such reuse elides); the surviving chain then acts as
an early incumbent for the branch-and-bound pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..spec import ComponentDef
from .compat import PlanningContext
from .load import config_covered, finish_plan
from .objectives import ExpectedLatency, Objective
from .plan import (
    DeploymentPlan,
    DeploymentState,
    Placement,
    PlannedLinkage,
    PlanRequest,
)

__all__ = ["plan_exhaustive", "SearchStats"]


@dataclass
class SearchStats:
    """Instrumentation for the scaling benchmarks and the obs layer.

    The ``*_rejected`` counters attribute dead branches to the paper's
    three validity conditions: ``install_rejected`` is condition 1
    (instantiation/factor binding), ``compat_rejected`` condition 2
    (property compatibility under path environments), and
    ``load_rejected`` condition 3 (capacity).
    """

    nodes_expanded: int = 0
    complete_plans: int = 0
    pruned: int = 0
    load_rejected: int = 0
    install_rejected: int = 0
    compat_rejected: int = 0


def _reaches(linkages: List[PlannedLinkage], src: int, dst: int) -> bool:
    """Is ``dst`` reachable from ``src`` along client->server edges?"""
    stack = [src]
    seen = {src}
    while stack:
        cur = stack.pop()
        if cur == dst:
            return True
        for l in linkages:
            if l.client == cur and l.server not in seen:
                seen.add(l.server)
                stack.append(l.server)
    return False


def plan_exhaustive(
    ctx: PlanningContext,
    request: PlanRequest,
    state: Optional[DeploymentState] = None,
    objective: Optional[Objective] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[DeploymentPlan]:
    """Best valid deployment plan, or None if no mapping satisfies all
    constraints."""
    objective = objective or ExpectedLatency()
    state = state or DeploymentState()
    stats = stats if stats is not None else SearchStats()
    spec = ctx.spec

    best: Optional[DeploymentPlan] = None
    prune_enabled = objective.supports_pruning

    placements: List[Placement] = []
    linkages: List[PlannedLinkage] = []
    # Per placement: probability that a client request flows out of it
    # (inbound prob x RRF, with RRF applied only at the first occurrence
    # of the placement's configuration on the root path — matching
    # load.compute_loads), and the set of configurations traversed so far.
    out_probs: List[float] = []
    seen_cfgs: List[frozenset] = []

    def _enter(placement: Placement, inbound_prob: float, parent_idx: Optional[int]) -> None:
        cfg = (placement.unit, placement.factor_values)
        seen = seen_cfgs[parent_idx] if parent_idx is not None else frozenset()
        if config_covered(ctx, seen, cfg):
            out = inbound_prob
        else:
            out = inbound_prob * spec.unit(placement.unit).behaviors.rrf
        placements.append(placement)
        out_probs.append(out)
        seen_cfgs.append(seen | {cfg})

    def _leave() -> None:
        placements.pop()
        out_probs.pop()
        seen_cfgs.pop()

    # Fresh-provider candidates depend only on (interface); precompute
    # lazily per interface — conditions, factors and implemented props
    # are all search-state independent for a fixed request context.
    _candidate_cache: Dict[str, List[Tuple[ComponentDef, Placement]]] = {}

    def candidates_for(iface: str) -> List[Tuple[ComponentDef, Placement]]:
        cached = _candidate_cache.get(iface)
        if cached is None:
            cached = []
            for provider in spec.implementers_of(iface):
                for node_info in ctx.network.nodes():
                    placement = ctx.instantiate(provider, node_info.name, request.context)
                    if placement is None:
                        stats.install_rejected += 1
                    else:
                        cached.append((provider, placement))
            _candidate_cache[iface] = cached
        return cached

    def linkable(required, impl, src: str, dst: str) -> bool:
        """Condition 2 for one candidate link; a pair a partition
        separates is skipped, not counted as rejected."""
        verdict = ctx.link_ok(required, impl, src, dst)
        if verdict is False:
            stats.compat_rejected += 1
        return bool(verdict)

    def try_complete() -> None:
        nonlocal best
        stats.complete_plans += 1
        plan = finish_plan(ctx, request, objective, list(placements), list(linkages))
        if plan is None:
            stats.load_rejected += 1
        elif best is None or plan.score < best.score:
            best = plan

    def search(frontier: List[Tuple[int, str]], partial_cost: float) -> None:
        stats.nodes_expanded += 1
        if prune_enabled and best is not None and partial_cost >= best.score[0]:
            stats.pruned += 1
            return
        if not frontier:
            try_complete()
            return
        client_idx, iface = frontier[0]
        rest = frontier[1:]
        client_place = placements[client_idx]
        client_unit = spec.unit(client_place.unit)
        required = ctx.required_props(client_unit, client_place.node, iface)
        if required is None:
            return  # malformed: client doesn't actually require this iface
        edge_prob = out_probs[client_idx]

        # (a) link to a provider already in the plan (DAG sharing).
        for srv_idx, srv in enumerate(placements):
            if srv_idx == client_idx:
                continue
            impl = srv.implemented_props(iface)
            if impl is None:
                continue
            if _reaches(linkages, srv_idx, client_idx):
                continue  # would create a cycle
            if not linkable(required, impl, client_place.node, srv.node):
                continue
            cost = (
                objective.edge_cost(ctx, client_unit, client_place.node, srv.node, edge_prob)
                if prune_enabled
                else 0.0
            )
            linkages.append(PlannedLinkage(client_idx, srv_idx, iface))
            search(rest, partial_cost + cost)
            linkages.pop()

        # (b) and (c) add a placement: only while the plan has room.
        if len(placements) >= request.max_units:
            return

        # (b) link to an installed placement from the deployment state.
        in_plan_keys = {p.key for p in placements}
        for installed in state.implementers_of(iface):
            if installed.key in in_plan_keys:
                continue
            impl = installed.implemented_props(iface)
            assert impl is not None
            if not linkable(required, impl, client_place.node, installed.node):
                continue
            cost = (
                objective.edge_cost(
                    ctx, client_unit, client_place.node, installed.node, edge_prob
                )
                if prune_enabled
                else 0.0
            )
            srv_idx = len(placements)
            _enter(installed, edge_prob, client_idx)
            linkages.append(PlannedLinkage(client_idx, srv_idx, iface))
            # Installed placements are already wired upstream: no new
            # frontier entries for their requirements.
            search(rest, partial_cost + cost)
            linkages.pop()
            _leave()

        # (c) instantiate a fresh provider somewhere.
        for provider, placement in candidates_for(iface):
            node = placement.node
            if placement.key in in_plan_keys:
                continue  # identical instance already placed: case (a)
            impl = placement.implemented_props(iface)
            assert impl is not None
            if not linkable(required, impl, client_place.node, node):
                continue
            cost = 0.0
            if prune_enabled:
                cost = objective.edge_cost(
                    ctx, client_unit, client_place.node, node, edge_prob
                ) + objective.placement_cost(ctx, provider, node, reused=False)
            srv_idx = len(placements)
            _enter(placement, edge_prob, client_idx)
            linkages.append(PlannedLinkage(client_idx, srv_idx, iface))
            new_frontier = rest + [
                (srv_idx, b.interface) for b in provider.requires
            ]
            search(new_frontier, partial_cost + cost)
            linkages.pop()
            _leave()

    # Root candidates: reused installed placements first, then fresh ones.
    for installed in state.implementers_of(request.interface):
        if not ctx.root_ok(request, installed):
            continue
        root_unit = spec.unit(installed.unit)
        _enter(installed, 1.0, None)
        # The root-view penalty is known at root selection time; folding
        # it into the partial cost keeps branch-and-bound sound *and*
        # effective for view-rooted subtrees.
        search([], objective.root_floor(root_unit))
        _leave()
    for root_unit in spec.implementers_of(request.interface):
        for node in ctx.root_nodes(request):
            placement = ctx.instantiate(root_unit, node, request.context)
            if placement is None or not ctx.root_ok(request, placement):
                continue
            _enter(placement, 1.0, None)
            frontier = [(0, b.interface) for b in root_unit.requires]
            cost = objective.root_floor(root_unit)
            if prune_enabled:
                cost += objective.placement_cost(ctx, root_unit, node, reused=False)
            search(frontier, cost)
            _leave()

    return best
