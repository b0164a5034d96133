"""Constraint-solver planner for general component graphs.

"To support such applications [represented as a directed component
graph], we are developing a partial-order based constraint solver
modeled after AI planning tools such as IPP" (§3.3).  This module
realizes that future-work planner as a CSP:

- enumerate bounded linkage graphs (trees/DAG skeletons) for the
  requested interface;
- per graph, solve a constraint-satisfaction problem whose variables are
  graph vertices and whose domains are candidate placements (fresh
  placements passing condition 1, plus installed placements from the
  deployment state);
- binary constraints are condition-2 compatibility along each edge
  (:meth:`~repro.planner.compat.PlanningContext.link_ok`), and the root's
  domain holds only placements the client accepts
  (:meth:`~repro.planner.compat.PlanningContext.root_ok`); search uses
  minimum-remaining-values ordering with forward checking and
  branch-and-bound on the objective's additive lower bound;
- complete assignments are load-checked (condition 3) and scored by
  :func:`~repro.planner.load.finish_plan`.

Unlike the DP planner this handles components with multiple required
interfaces (fan-out), and unlike the exhaustive planner its search is
structured per linkage graph with constraint propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .compat import PlanningContext
from .linkage import LinkageGraph, enumerate_linkage_graphs
from .load import finish_plan
from .objectives import ExpectedLatency, Objective
from .plan import (
    DeploymentPlan,
    DeploymentState,
    Placement,
    PlannedLinkage,
    PlanRequest,
)

__all__ = ["plan_partial_order", "CSPStats"]


@dataclass
class CSPStats:
    """Instrumentation for comparison benchmarks."""

    graphs_considered: int = 0
    assignments_tried: int = 0
    forward_prunes: int = 0
    bound_prunes: int = 0


def plan_partial_order(
    ctx: PlanningContext,
    request: PlanRequest,
    state: Optional[DeploymentState] = None,
    objective: Optional[Objective] = None,
    stats: Optional[CSPStats] = None,
) -> Optional[DeploymentPlan]:
    """Best deployment over all bounded linkage graphs, solved as CSPs."""
    objective = objective or ExpectedLatency()
    state = state or DeploymentState()
    stats = stats if stats is not None else CSPStats()
    spec = ctx.spec

    all_nodes = [n.name for n in ctx.network.nodes()]

    best: Optional[DeploymentPlan] = None
    prune = objective.supports_pruning

    graphs = enumerate_linkage_graphs(spec, request.interface, request.max_units, obs=ctx.obs)

    # Reused root: a single installed placement satisfies the request.
    for installed in state.implementers_of(request.interface):
        if not ctx.root_ok(request, installed):
            continue
        plan = finish_plan(ctx, request, objective, [installed], [])
        if plan is not None and (best is None or plan.score < best.score):
            best = plan

    for graph in graphs:
        stats.graphs_considered += 1
        plan = _solve_graph(
            ctx, request, state, objective, stats, graph, all_nodes,
            best_score=(best.score if best is not None and prune else None),
        )
        if plan is not None and (best is None or plan.score < best.score):
            best = plan

    return best


def _graph_probs(ctx: PlanningContext, graph: LinkageGraph) -> List[float]:
    """Unit-level traversal probability of the edge *into* each vertex."""
    children: Dict[int, List[int]] = {}
    for client, server, _ in graph.edges:
        children.setdefault(client, []).append(server)
    probs = [1.0] * len(graph.units)

    def walk(idx: int, p: float, seen: frozenset) -> None:
        probs[idx] = p
        name = graph.units[idx]
        if name in seen:
            out = p
        else:
            out = p * ctx.spec.unit(name).behaviors.rrf
            seen = seen | {name}
        for child in children.get(idx, ()):
            walk(child, out, seen)

    walk(0, 1.0, frozenset())
    return probs


def _solve_graph(
    ctx: PlanningContext,
    request: PlanRequest,
    state: DeploymentState,
    objective: Objective,
    stats: CSPStats,
    graph: LinkageGraph,
    all_nodes: List[str],
    best_score: Optional[Tuple[float, ...]],
) -> Optional[DeploymentPlan]:
    spec = ctx.spec
    n = len(graph.units)
    root_unit = spec.unit(graph.units[0])
    root_extra = objective.root_view_penalty if root_unit.is_view else 0.0
    probs = _graph_probs(ctx, graph)
    prune = objective.supports_pruning

    # Vertex -> incident edges, for constraint checking.
    edges_of: Dict[int, List[Tuple[int, int, str]]] = {i: [] for i in range(n)}
    for e in graph.edges:
        edges_of[e[0]].append(e)
        edges_of[e[1]].append(e)

    # Domains: candidate placements per vertex.  Leaves (and only
    # non-root vertices) may also bind to installed placements, which
    # terminate their own requirements implicitly — but an installed
    # placement is only a valid binding for a vertex whose children in
    # the graph would duplicate what is already wired; to stay exact, we
    # allow installed placements only on vertices whose subtree they
    # replace entirely.  For tree graphs this means any vertex: binding
    # it prunes the subtree's remaining vertices from the CSP.
    fresh_domains: List[List[Placement]] = []
    for i in range(n):
        unit = spec.unit(graph.units[i])
        nodes = ctx.root_nodes(request) if i == 0 else all_nodes
        domain = []
        for node in nodes:
            p = ctx.instantiate(unit, node, request.context)
            if p is None:
                continue
            if i == 0 and not ctx.root_ok(request, p):
                continue
            domain.append(p)
        fresh_domains.append(domain)
        if not domain and i == 0:
            return None

    # Children map for subtree pruning on reuse.
    children: Dict[int, List[Tuple[int, str]]] = {}
    parent_edge: Dict[int, Tuple[int, str]] = {}
    for client, server, iface in graph.edges:
        children.setdefault(client, []).append((server, iface))
        parent_edge[server] = (client, iface)

    def subtree(idx: int) -> Set[int]:
        out = {idx}
        stack = [idx]
        while stack:
            cur = stack.pop()
            for child, _ in children.get(cur, ()):
                if child not in out:
                    out.add(child)
                    stack.append(child)
        return out

    assignment: Dict[int, Placement] = {}
    skipped: Set[int] = set()  # vertices absorbed by a reused binding
    best_local: Optional[DeploymentPlan] = None
    best_local_score = best_score

    def edge_ok(client_idx: int, server_idx: int, iface: str) -> bool:
        cp = assignment[client_idx]
        sp = assignment[server_idx]
        required = ctx.required_props(spec.unit(cp.unit), cp.node, iface)
        if required is None:
            return False
        impl = sp.implemented_props(iface)
        if impl is None:
            return False
        return bool(ctx.link_ok(required, impl, cp.node, sp.node))

    def partial_cost() -> float:
        cost = root_extra
        for idx, p in assignment.items():
            if not p.reused:
                cost += objective.placement_cost(ctx, spec.unit(p.unit), p.node, False)
        for client, server, _iface in graph.edges:
            if client in assignment and server in assignment:
                cu = spec.unit(assignment[client].unit)
                cost += objective.edge_cost(
                    ctx, cu, assignment[client].node, assignment[server].node,
                    probs[server],
                )
        return cost

    def complete() -> None:
        nonlocal best_local, best_local_score
        # Build the plan from assigned (non-skipped) vertices.
        idx_map: Dict[int, int] = {}
        placements: List[Placement] = []
        for i in range(n):
            if i in skipped:
                continue
            idx_map[i] = len(placements)
            placements.append(assignment[i])
        linkages = [
            PlannedLinkage(idx_map[c], idx_map[s], iface)
            for c, s, iface in graph.edges
            if c in idx_map and s in idx_map
        ]
        plan = finish_plan(ctx, request, objective, placements, linkages)
        if plan is None:
            return
        if best_local_score is not None and plan.score >= best_local_score:
            return
        best_local = plan
        best_local_score = plan.score

    def unassigned_vars() -> List[int]:
        return [
            i for i in range(n) if i not in assignment and i not in skipped
        ]

    def solve() -> None:
        stats.assignments_tried += 1
        if prune and best_local_score is not None and partial_cost() >= best_local_score[0]:
            stats.bound_prunes += 1
            return
        todo = unassigned_vars()
        if not todo:
            complete()
            return
        # MRV: choose the vertex with the smallest live domain; vertices
        # whose parent is assigned are preferred (constraints bite).
        def domain_size(i: int) -> Tuple[int, int]:
            parent_known = 0 if (i in parent_edge and parent_edge[i][0] in assignment) else 1
            return (parent_known, len(fresh_domains[i]))

        var = min(todo, key=domain_size)
        parent = parent_edge.get(var)

        # Option 1: bind an installed placement (absorbs var's subtree).
        if parent is not None and parent[0] in assignment:
            for installed in state.implementers_of(parent[1]):
                assignment[var] = installed
                absorbed = subtree(var) - {var}
                if edge_ok(parent[0], var, parent[1]):
                    skipped.update(absorbed)
                    solve()
                    skipped.difference_update(absorbed)
                del assignment[var]

        # Option 2: fresh placements from the domain.
        for p in fresh_domains[var]:
            assignment[var] = p
            ok = True
            for client, server, iface in edges_of[var]:
                if client in assignment and server in assignment:
                    if server in skipped or client in skipped:
                        continue
                    if not edge_ok(client, server, iface):
                        stats.forward_prunes += 1
                        ok = False
                        break
            if ok:
                solve()
            del assignment[var]

    solve()
    return best_local
