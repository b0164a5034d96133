"""Dynamic-programming planner for chain-shaped component graphs.

"For the case where all component graphs are chains, an efficient
dynamic programming algorithm is described and evaluated in [13]"
(CANS).  This module reimplements that idea: the valid linkage *chains*
(from :mod:`repro.planner.linkage`) form a trie of unit prefixes, and a
DP over ``(chain prefix, node)`` states finds each prefix's minimum-cost
placements once — a cell depends only on its prefix, so the 20
``ClientInterface`` chains of the mail service share 48 cells instead of
computing 94 — where the exhaustive planner searches exponentially.

Cost: per distinct prefix, ``|open states| x (|candidate nodes| +
|installed providers|)`` pairs, i.e. ``O(prefixes * nodes^2)`` per
request — but a pair is checked once per structure epoch, not once per
plan.  An open state's **pair row** lists, for one candidate table, the
candidates it may link to with the probability-free edge weight and the
placement cost of each; the row is built by the exact sequence of
checks (reachability and the path environment from
:meth:`PlanningContext.link_envs_from`, condition 2 through
:meth:`PlanningContext.compatible_interned`, then the route cost from
:meth:`Objective.edge_weight`), and the DP's inner loop only adds
``cost + prob * weight + placement cost`` along it.  An open
state's **installed-provider row** does the same for the providers
already installed: per (provider key, implemented bag id) it holds the
edge weight, or ``None`` for no valid link, checked by that sequence the
first time the state meets the provider.  The bag id is part of the key
because a provider installed before a credential change keeps the bag
it was instantiated with.

Four lifetimes, by what each table reads:

- *per context* (:class:`~repro.planner.compat.ChainTables` on the
  context, never flushed): the chain shapes of an interface, which
  read only the spec;
- *per structure epoch* (the rest of ``ChainTables``, flushed with the
  routes when ``Network.structure_version`` moves, kept across
  ``Planner.commit``): the fresh candidates of a (unit, interface,
  :func:`~repro.planner.compat.context_key` of the unit, objective)
  and their pair rows, and the installed-provider rows of an
  (interface, objective) — condition 1 reads only the request-context
  keys the unit's conditions name, condition 2 and route costs read
  none, and none reads what a reservation or the deployment state
  moves.  With ``memoize=False`` the same code builds these tables
  where they are needed and keeps none;
- *per call*: the DP cells, the list of installed providers of an
  interface and the ``early`` completions that end at them (they read
  the :class:`DeploymentState`), condition 3 and the exact score (they
  read the reservations), and the set of completions already scored;
- *per plan-cache epoch*: the finished plan, in
  :class:`~repro.planner.cache.PlanCache`.

Scope and honesty notes:

- Edge validity (conditions 1 and 2) is checked exactly, per pair, by
  the checks every planner shares (:meth:`PlanningContext.instantiate`,
  :meth:`PlanningContext.root_ok`); a pair row makes the lookups of
  :meth:`PlanningContext.link_ok` on interned bags.
- Traversal probabilities use *unit-level* first-occurrence RRF over the
  chain prefix (node-independent, so states stay memoizable).  When a
  chain repeats a factored view with different configurations the exact
  coverage semantics differ slightly; the returned plan is re-scored
  with the exact objective, so reported scores are always comparable.
- Condition 3 (load) is validated on the completed plan by
  :func:`~repro.planner.load.finish_plan`; a chain whose optimum
  violates capacity is discarded rather than re-searched.  The
  exhaustive planner remains the complete reference.
- An installed placement implementing the interface required at any
  position may terminate the chain early (deployment reuse), mirroring
  the exhaustive planner's case (b).
- Each chain scores its cheapest few completions exactly, in the order
  a stable sort over (reused roots, early completions per position,
  fresh terminals) yields — dict insertion order of the cells decides
  ties, so sharing cells across chains leaves the chosen plan unchanged.
  Chains through one cell offer the same completions again; a
  completion is load-checked and scored the first time only (a repeat
  could never replace the incumbent, which needs a strictly lower
  score).
- A chain is skipped, before its root cell is built, when its root
  unit's :meth:`Objective.root_floor` lies strictly above the
  incumbent's primary score and the objective ``supports_pruning``
  (its other primary terms are non-negative, so every plan rooted at
  that unit scores at least the floor).  Under the mail objectives
  that means: once a MailClient plan is in hand, the view-rooted
  chains go unsolved, and Seattle, where no MailClient installs,
  solves them all.  The chains keep their enumeration order.  A
  chain's *reused* roots are not its root unit's, but a skip cannot
  drop one: every root cell offers the same installed roots, each at
  the cell's floor and ahead of every other completion, which costs
  at least that floor, so the stable sort puts the same first few of
  them in front in every chain, and the first chain solved has scored
  them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .compat import ChainTables, PlanningContext, context_key
from .linkage import enumerate_linkage_graphs
from .load import finish_plan
from .objectives import ExpectedLatency, Objective
from .plan import (
    DeploymentPlan,
    DeploymentState,
    Placement,
    PlannedLinkage,
    PlanRequest,
)

__all__ = ["plan_dp_chain", "DPStats"]


@dataclass
class DPStats:
    """Instrumentation for the planner-scaling benchmarks."""

    #: chains solved; one the root floor skips is not counted
    chains_considered: int = 0
    #: (open state, candidate) pairs the DP considered
    states_evaluated: int = 0
    #: distinct completions load-checked and scored exactly
    plans_scored: int = 0


def _chain_probs(ctx: PlanningContext, units: List[str]) -> List[float]:
    """Traversal probability of the edge leaving each chain position."""
    probs: List[float] = []
    p = 1.0
    seen: set = set()
    for name in units:
        unit = ctx.spec.unit(name)
        if name not in seen:
            p *= unit.behaviors.rrf
            seen.add(name)
        probs.append(p)
    return probs


#: one chain of an interface: (units, interface of each edge,
#: :func:`_chain_probs` of the units)
_Shape = Tuple[List[str], List[str], List[float]]


def _chain_shapes(
    ctx: PlanningContext,
    tables: Optional[ChainTables],
    interface: str,
    max_units: int,
) -> List[_Shape]:
    """The chain-shaped linkage graphs of ``interface``, in enumeration order."""
    key = (interface, max_units)
    shapes = tables.shapes.get(key) if tables is not None else None
    if shapes is None:
        shapes = []
        for graph in enumerate_linkage_graphs(ctx.spec, interface, max_units, obs=ctx.obs):
            if graph.is_chain:
                units = graph.chain_units()
                ifaces = [iface for _c, _s, iface in sorted(graph.edges, key=lambda e: e[0])]
                shapes.append((units, ifaces, _chain_probs(ctx, units)))
        if tables is not None:
            tables.shapes[key] = shapes
    return shapes


@dataclass
class _Cell:
    """The DP states of one chain *prefix*, shared by every chain that
    starts with it (a node of the prefix trie).

    References run from a prefix to its extensions only, and a
    completion names its cell by depth, so the trie holds no reference
    cycle: it is freed when the call returns, not by the collector.
    """

    #: placement of the prefix's last unit -> (lower-bound primary cost
    #: of the cheapest way to reach it, its predecessor one cell up)
    places: Dict[Placement, Tuple[float, Optional[Placement]]]
    #: (next unit, interface) -> the prefix one unit longer
    children: Dict[Tuple[str, str], "_Cell"] = field(default_factory=dict)
    #: interface -> the cheapest completions that end at an *installed*
    #: provider of it: (cost, this cell's depth, state placement, provider)
    early: Dict[str, List["_Completion"]] = field(default_factory=dict)


#: (lower-bound cost, depth of its cell, placement in that cell,
#: installed provider ending the chain below that placement or None) —
#: backtraced only if scored
_Completion = Tuple[float, int, Placement, Optional[Placement]]


def _backtrace(path: List[_Cell], depth: int, placement: Placement) -> List[Placement]:
    """Root-first placements of the cheapest way to ``placement`` in
    ``path[depth]``, where ``path`` lists a chain's cells root first."""
    chain = [placement]
    for cell in path[depth:0:-1]:
        placement = cell.places[placement][1]  # type: ignore[assignment]
        chain.append(placement)
    chain.reverse()
    return chain


#: completions per chain whose exact score is computed
_SCORED_PER_CHAIN = 5


_completion_cost = itemgetter(0)


def _offer(
    ctx: PlanningContext, placement: Placement, iface: str
) -> Optional[Tuple[Dict[str, Any], int]]:
    """``(implemented bag, its bag id)`` of ``placement`` for ``iface``."""
    for name, frozen in placement.implemented:
        if name == iface:
            return dict(frozen), ctx.frozen_bag_id(frozen)
    return None


#: ``(required bag, its bag id, [(candidate index, edge weight,
#: candidate placement cost), ...])`` of one open state against one
#: candidate table, compatible candidates only, in table order
_PairRow = Tuple[Optional[Dict[str, Any]], Optional[int], Sequence[Tuple[int, float, float]]]

#: the row of a state whose unit does not require the interface
_NOT_REQUIRED: _PairRow = (None, None, ())

#: one open state against the installed providers of one interface:
#: (provider key, its implemented bag id) -> the edge weight, or
#: ``None`` when no link to that provider is valid
_ProviderRow = Dict[Tuple, Optional[float]]


@dataclass
class _CandidateTable:
    """Where one unit can be freshly placed to offer one interface."""

    #: per node the unit installs on: (placement, its key, node,
    #: implemented bag, its bag id, placement cost)
    candidates: List[Tuple]
    #: key of an open state's placement -> its row over ``candidates``
    rows: Dict[Tuple, _PairRow] = field(default_factory=dict)


def _pair_row(
    ctx: PlanningContext,
    objective: Objective,
    place: Placement,
    iface: str,
    candidates: List[Tuple],
) -> _PairRow:
    """Check ``place`` against every candidate: reachability, then
    condition 2, then the route cost — in candidate order, so pair
    routes are first resolved in a fixed order."""
    node = place.node
    prev_unit = ctx.spec.unit(place.unit)
    required = ctx.required_props(prev_unit, node, iface)
    if required is None:
        return _NOT_REQUIRED
    required_id = ctx.bag_id(required)
    key = place.key
    links = ctx.link_envs_from(node)
    compatible = ctx.compatible_interned
    edge_weight = objective.edge_weight
    pairs = []
    for j, (_cand, cand_key, cand_node, impl, impl_id, cand_cost) in enumerate(candidates):
        if cand_key == key:
            continue
        link = links[cand_node]
        if link is None or not compatible(
            required, required_id, impl, impl_id, link[0], link[1]
        ):
            continue
        pairs.append((j, edge_weight(ctx, prev_unit, node, cand_node), cand_cost))
    return required, required_id, pairs


def _provider_weight(
    ctx: PlanningContext,
    objective: Objective,
    place: Placement,
    required: Dict[str, Any],
    required_id: Optional[int],
    provider: Placement,
    impl: Dict[str, Any],
    impl_id: int,
) -> Optional[float]:
    """The edge weight of ``place`` linking to an installed ``provider``,
    or ``None`` if no such link is valid — checked like a pair row's
    entry: reachability, condition 2, then the route cost."""
    link = ctx.link_envs_from(place.node)[provider.node]
    if link is None or not ctx.compatible_interned(
        required, required_id, impl, impl_id, link[0], link[1]
    ):
        return None
    return objective.edge_weight(ctx, ctx.spec.unit(place.unit), place.node, provider.node)


#: a provider not yet checked against an open state
_UNSEEN = object()


def plan_dp_chain(
    ctx: PlanningContext,
    request: PlanRequest,
    state: Optional[DeploymentState] = None,
    objective: Optional[Objective] = None,
    stats: Optional[DPStats] = None,
) -> Optional[DeploymentPlan]:
    """Best chain-shaped deployment found by DP over the chain-prefix trie."""
    objective = objective or ExpectedLatency()
    state = state or DeploymentState()
    stats = stats if stats is not None else DPStats()
    spec = ctx.spec
    tables = ctx.chain_tables()
    objective_key = objective.cache_key
    prunable = objective.supports_pruning

    all_nodes = [n.name for n in ctx.network.nodes()]

    def root_cell(unit_name: str) -> _Cell:
        unit = spec.unit(unit_name)
        extra = objective.root_floor(unit)
        places: Dict[Placement, Tuple[float, Optional[Placement]]] = {}
        for node in ctx.root_nodes(request):
            p = ctx.instantiate(unit, node, request.context)
            if p is not None and ctx.root_ok(request, p):
                places[p] = (extra + objective.placement_cost(ctx, unit, node, False), None)
        for installed in state.implementers_of(request.interface):
            if ctx.root_ok(request, installed):
                places[installed] = (extra, None)
        return _Cell(places)

    def candidate_table(unit_name: str, iface: str) -> _CandidateTable:
        # A table outlives the call when the context memoizes and the
        # part of the request context the unit reads is hashable.
        unit = spec.unit(unit_name)
        kept = tables.candidates if tables is not None else None
        try:
            key = (unit_name, iface, context_key(unit, request.context), objective_key)
        except TypeError:
            kept = None
        table = kept.get(key) if kept is not None else None
        if table is None:
            found = []
            for node in all_nodes:
                p = ctx.instantiate(unit, node, request.context)
                offer = _offer(ctx, p, iface) if p is not None else None
                if offer is not None:
                    cost = objective.placement_cost(ctx, unit, node, False)
                    found.append((p, p.key, node, *offer, cost))
            table = _CandidateTable(found)
            if kept is not None:
                kept[key] = table
        return table

    # Installed providers per interface read the deployment state: per
    # call.  Each entry: (placement, implemented bag, its bag id, the
    # provider's key in an installed-provider row).
    installed_by_iface: Dict[str, List[Tuple[Placement, Dict[str, Any], int, Tuple]]] = {}

    def installed_candidates(iface: str):
        found = installed_by_iface.get(iface)
        if found is None:
            found = installed_by_iface[iface] = []
            for p in state.implementers_of(iface):
                impl, impl_id = _offer(ctx, p, iface)  # type: ignore[misc]
                found.append((p, impl, impl_id, (p.key, impl_id)))
        return found

    def extend(cell: _Cell, depth: int, unit_name: str, iface: str, prob: float) -> _Cell:
        """The cell of ``cell``'s prefix (``depth`` units past the root)
        plus ``unit_name``.

        The first extension of ``cell`` over ``iface`` also collects
        ``cell.early[iface]`` — installed providers (of any unit)
        terminate the chain there — inside the same sweep over the open
        states, so pair routes are first resolved in a fixed order.
        """
        table = candidate_table(unit_name, iface)
        candidates, rows = table.candidates, table.rows
        early = None
        if iface not in cell.early:
            early = cell.early[iface] = []
            installed = installed_candidates(iface)
            provider_rows: Dict[Tuple, _ProviderRow] = (
                tables.installed.setdefault((iface, objective_key), {})
                if tables is not None
                else {}
            )
        # Best (cost, parent) per candidate index; ``order`` keeps the
        # candidates in first-reached order, which is the new cell's
        # dict order and so decides ties between equal-cost completions.
        best: List[Optional[Tuple[float, Placement]]] = [None] * len(candidates)
        order: List[int] = []
        for place, (cost, _parent) in cell.places.items():
            if place.reused:
                continue  # reused placements are already complete
            key = place.key
            row = rows.get(key)
            if row is None:
                row = rows[key] = _pair_row(ctx, objective, place, iface, candidates)
            required, required_id, pairs = row
            if required is None:
                continue

            stats.states_evaluated += len(candidates)
            for j, weight, cand_cost in pairs:
                total = cost + prob * weight + cand_cost
                old = best[j]
                if old is None:
                    order.append(j)
                    best[j] = (total, place)
                elif total < old[0]:
                    best[j] = (total, place)

            if early is None:
                continue
            stats.states_evaluated += len(installed)
            weights = provider_rows.get(key)
            if weights is None:
                weights = provider_rows[key] = {}
            for cand, impl, impl_id, cand_id in installed:
                weight = weights.get(cand_id, _UNSEEN)
                if weight is _UNSEEN:
                    weight = weights[cand_id] = _provider_weight(
                        ctx, objective, place, required, required_id, cand, impl, impl_id
                    )
                if weight is not None:
                    early.append((cost + prob * weight, depth, place, cand))
        if early is not None:
            # A chain scores its cheapest few completions, and the sort
            # that picks them is stable, so no later entry of this list
            # can ever be picked: keep only its own cheapest few.
            early.sort(key=_completion_cost)
            del early[_SCORED_PER_CHAIN:]
        return _Cell({candidates[j][0]: best[j] for j in order})  # type: ignore[misc]

    best: Optional[DeploymentPlan] = None
    root_cells: Dict[str, _Cell] = {}
    #: (placements, interface of each linkage) of the completions scored
    scored: Set[Tuple] = set()

    for units, ifaces, probs in _chain_shapes(ctx, tables, request.interface, request.max_units):
        # Every plan of a chain whose root unit's floor lies above the
        # incumbent loses to it (see the notes on the floor above).
        if prunable and best is not None and (
            objective.root_floor(spec.unit(units[0])) > best.score[0]
        ):
            continue
        stats.chains_considered += 1

        cell = root_cells.get(units[0])
        if cell is None:
            cell = root_cells[units[0]] = root_cell(units[0])
        if not cell.places:
            continue

        # Reused roots complete immediately (already wired upstream).
        completions: List[_Completion] = [
            (cost, 0, placement, None)
            for placement, (cost, _parent) in cell.places.items()
            if placement.reused
        ]
        path = [cell]
        for i in range(1, len(units)):
            iface = ifaces[i - 1]
            prob = probs[i - 1]
            child = cell.children.get((units[i], iface))
            if child is None:
                child = cell.children[(units[i], iface)] = extend(
                    cell, i - 1, units[i], iface, prob
                )
            completions += cell.early[iface]
            cell = child
            path.append(cell)
            if not cell.places:
                break
        else:
            # Fresh terminal completions: the chain's last unit requires nothing.
            depth = len(path) - 1
            completions += [
                (cost, depth, placement, None)
                for placement, (cost, _parent) in cell.places.items()
                if not placement.reused
            ]

        # Score the cheapest few completions exactly (DP cost is a proxy).
        completions.sort(key=_completion_cost)
        for _cost, depth, placement, provider in completions[:_SCORED_PER_CHAIN]:
            chain_places = _backtrace(path, depth, placement)
            if provider is not None:
                chain_places.append(provider)
            links = tuple(ifaces[: len(chain_places) - 1])
            completion = (tuple(chain_places), links)
            if completion in scored:
                continue
            scored.add(completion)
            stats.plans_scored += 1
            linkages = [PlannedLinkage(j, j + 1, iface) for j, iface in enumerate(links)]
            plan = finish_plan(ctx, request, objective, chain_places, linkages)
            if plan is not None and (best is None or plan.score < best.score):
                best = plan

    return best
