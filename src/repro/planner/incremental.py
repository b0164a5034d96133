"""Incremental replanning: patch a deployment instead of re-deriving it.

After a fault, the previous deployment is mostly still valid — only the
subtree rooted at the failed/overloaded host needs re-solving.  Dearle
et al.'s autonomic-deployment work restarts constraint solving from the
*previous* configuration on failure rather than from zero; this module
does the same for the paper's planner.

:func:`surviving_placements` re-validates the previous plan bottom-up
under the **current** network: a placement survives iff it is still
installable on its (live) node — condition 1 — and every linkage it
makes downstream still reaches a surviving provider whose properties
remain compatible under the current path environment — condition 2.
Re-validating condition 2 matters: a dead *router* reroutes traffic, and
the new path may lose (or gain) Confidentiality, silently invalidating a
linkage between two perfectly healthy endpoints.

:meth:`~repro.planner.planner.Planner.replan_incremental` seeds the
search's :class:`~repro.planner.plan.DeploymentState` with those
survivors and runs the normal algorithm, re-attaching the survivors'
wiring with :func:`graft_survivor_subtrees`.  Seeding only *adds* reuse
candidates (every search treats installed placements as already-wired
providers), so the seeded search explores a superset of the unseeded
one — and with a branch-and-bound objective the surviving chain yields
an early incumbent that prunes most of the space.  If the seeded search
finds nothing, the plain full search runs as a fallback.

The :class:`~repro.smock.replanner.ReplanManager` applies this only to
*liveness*-triggered rounds (node/link up/down).  Attribute changes
(e.g. a link turning secure, which should retire a crypto pair) replan
from scratch: there the previous structure is exactly what must be
reconsidered, and an early reuse incumbent would be a bias, not a
shortcut.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Set, Tuple

from .compat import PlanningContext
from .plan import DeploymentPlan, Placement, PlannedLinkage

__all__ = ["surviving_placements", "graft_survivor_subtrees"]


def surviving_placements(
    ctx: PlanningContext,
    previous: DeploymentPlan,
    context: Optional[Dict[str, Any]] = None,
) -> List[Placement]:
    """Placements of ``previous`` whose whole downstream subtree is
    still valid under the current network.

    Only such placements may seed a new search: the search algorithms
    treat installed placements as *already wired* (their requirements
    are not re-opened), so a survivor must vouch for everything beneath
    it.  Checks per placement:

    - condition 1: the unit still satisfies its installation conditions
      on its node (:meth:`PlanningContext.installable`; a dead node
      fails this immediately);
    - per downstream linkage: the server placement survives, and its
      recorded implemented properties still satisfy the client's
      requirements across the *current* route
      (:meth:`PlanningContext.link_ok`, condition 2 — rerouting around
      failures can change it, and a partition fails it).
    """
    verdicts: Dict[int, bool] = {}
    return [
        previous.placements[idx]
        for idx in range(len(previous.placements))
        if _survives(ctx, previous, context, verdicts, idx)
    ]


def _survives(
    ctx: PlanningContext,
    previous: DeploymentPlan,
    context: Optional[Dict[str, Any]],
    verdicts: Dict[int, bool],
    idx: int,
) -> bool:
    """Does placement ``idx`` and its whole downstream subtree survive?
    A module function, not a recursive closure: that would be a
    reference cycle holding ``previous`` until the collector runs."""
    known = verdicts.get(idx)
    if known is not None:
        return known
    verdicts[idx] = False  # cycle guard (plans are DAGs, but be safe)
    placement = previous.placements[idx]
    unit = ctx.spec.unit(placement.unit)
    if not ctx.installable(unit, placement.node, context):
        return False
    for iface, srv_idx in previous.servers_of(idx):
        if not _survives(ctx, previous, context, verdicts, srv_idx):
            return False
        server = previous.placements[srv_idx]
        impl = server.implemented_props(iface)
        required = ctx.required_props(unit, placement.node, iface)
        if impl is None or required is None:
            return False
        if not ctx.link_ok(required, impl, placement.node, server.node):
            return False
    verdicts[idx] = True
    return True


def graft_survivor_subtrees(
    previous: DeploymentPlan,
    plan: DeploymentPlan,
    seeded_keys: Set[Tuple],
) -> DeploymentPlan:
    """Re-attach the downstream wiring of seeded placements a plan reused.

    Every search treats installed placements as *already wired*: when it
    links to one (or roots the plan at one), it records the placement
    alone, not the chain beneath it.  That is correct for permanent
    primaries, but a placement seeded from a previous plan vouches for a
    whole surviving subtree — and a plan that omits it would make the
    replanner retire live, still-needed components.  This walks the
    previous plan's linkages from every seeded placement the new plan
    contains and appends the missing placements (marked ``reused``) and
    linkages in place, so the plan again describes its full wiring.

    Mutates and returns ``plan``.  The plan's ``score`` is left as the
    search computed it (scores are only compared within one search).
    """
    if not seeded_keys:
        return plan
    prev_idx = {p.key: i for i, p in enumerate(previous.placements)}
    new_idx = {p.key: i for i, p in enumerate(plan.placements)}
    existing_links = {
        (plan.placements[l.client].key, plan.placements[l.server].key, l.interface)
        for l in plan.linkages
    }
    queue = [p.key for p in plan.placements if p.key in seeded_keys]
    visited: Set[Tuple] = set()
    while queue:
        key = queue.pop()
        if key in visited:
            continue
        visited.add(key)
        at_prev = prev_idx.get(key)
        if at_prev is None:
            continue
        for iface, srv_prev in previous.servers_of(at_prev):
            server = previous.placements[srv_prev]
            at_new = new_idx.get(server.key)
            if at_new is None:
                at_new = len(plan.placements)
                plan.placements.append(replace(server, reused=True))
                new_idx[server.key] = at_new
            link = (key, server.key, iface)
            if link not in existing_links:
                plan.linkages.append(PlannedLinkage(new_idx[key], at_new, iface))
                existing_links.add(link)
            queue.append(server.key)
    return plan

