"""Pairwise linkage validity: the planner's three conditions (§3.3).

For each pair of linked components the planner checks, each condition
in one place that every search algorithm, ``Planner.preinstall`` and
the incremental survivor check call:

1. each component can be *instantiated* in its node environment
   (installation ``Conditions``): :meth:`PlanningContext.instantiate`;
2. the properties of the interface implemented by the 'server' are
   *compatible* with those required by the 'client', after the
   environment's property-modification rules transform them:
   :meth:`PlanningContext.link_ok` along a route,
   :meth:`PlanningContext.root_ok` between the client and a root;
3. the expected request traffic does not exceed node/link capacity:
   :func:`~repro.planner.load.finish_plan`.

:class:`PlanningContext` bundles the spec, network, credential
translator and rule set, and caches node/path environments — the hot
lookups of every search algorithm.

It also *memoizes* the two hot validity checks themselves (the planner
fast path, shared by all three search algorithms):

- condition 2 — :meth:`PlanningContext.properties_compatible`, keyed by
  the interned ids of the (required, implemented, path-environment)
  property bags.  A search that checks many pairs interns each bag once
  (:meth:`PlanningContext.bag_id`, :meth:`PlanningContext.link_envs_from`)
  and calls :meth:`PlanningContext.compatible_interned`, so a memo
  lookup hashes three small ints instead of re-sorting three dicts;
- condition 1 — :meth:`PlanningContext.installable`, keyed by
  (component, node, :func:`context_key`): the node stands for its
  credentials after translation, and of the request context only the
  keys the component's conditions read (``ComponentDef.condition_props``)
  count.  A context key no condition reads, however unhashable its
  value, neither splits nor bypasses the memo.

What each table reads decides what flushes it:

- when ``Network.structure_version`` moves (every change but a
  reservation, a liveness flip included): the link rows of
  :meth:`PlanningContext.link_envs_from` (which pairs are reachable),
  the per-pair round-trip index, and the :class:`ChainTables` but the
  shapes (fresh candidates, pair rows, installed-provider rows);
- when ``Network.graph_version`` moves (the graph, an attribute or a
  credential, ``Network.touch()``; never a flip): the path
  environments and transfer times kept per route — per pair, with the
  hop tuple they were computed on, and reused only while the pair's
  route is that hop sequence — node environments, resolved
  implements/requires, bag ids and both memos;
- never: the chain shapes, which read only the spec.

A liveness flip (``Network.set_node_up`` / ``set_link_up``) changes
which route a pair takes and whether it has one, and which nodes can
host what; it changes no hop's attributes and no credential.  So it
rebuilds the link rows and the round-trip index, but an entry whose
pair still takes the hops its kept value was computed on is answered
from that value (a first build pays one dict lookup for it, and
nothing per hop); condition-2 verdicts read only bags and stay;
condition 1 reads node liveness live, ahead of its memo
(:meth:`PlanningContext.installable`), so a dead node never serves a
stale ``True``.  The DP's tables read both reachability and
installability and go.  Every other structure change moves both
counters and flushes everything but the chain shapes, so no
memoized value outlives the network state it was computed against —
provided a direct attribute write is followed by ``Network.touch()``,
and a credential translator reads only what that covers.  Capacity
*reservations* (``Network.reserve`` / ``Network.release``, what
``Planner.commit`` and replan rounds record) change none of them and flush nothing:
condition 3 reads ``free_cpu`` / ``free_mbps`` live in
:func:`~repro.planner.load.check_loads`.  Hit/miss counts land in
:class:`ContextCacheStats`, which the :class:`~repro.planner.planner.
Planner` facade exports through the metrics registry.  Pass
``memoize=False`` to evaluate every check directly (the results are
identical either way; the memo is a pure cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..network import CredentialTranslator, Network, NetworkError, PathInfo
from ..obs import Observability, resolve_obs
from ..spec import (
    ANY,
    ComponentDef,
    ServiceSpec,
    ViewDef,
    resolve_env_refs,
    satisfies,
)
from .plan import Placement, PlanRequest, freeze_implemented, freeze_props

__all__ = ["PlanningContext", "ContextCacheStats", "ChainTables"]


@dataclass
class ContextCacheStats:
    """Hit/miss accounting for the memoized validity checks.

    ``compat_hits + compat_misses`` counts the condition-2 checks that
    reached the memo.  ``plan_dp_chain`` checks a (state, candidate)
    pair when it builds the state's pair row, and a (state, installed
    provider) pair when it first enters the state's installed-provider
    row, and neither again while the row stands; so for that planner
    the sum grows with row entries built, not with the pairs a plan
    considers — ``DPStats.states_evaluated`` counts those.
    ``uncacheable`` counts evaluations whose property values, or the
    request-context values a condition reads, were not hashable (the
    memo silently steps aside for those);
    ``invalidations`` counts flushes caused by a network structure
    change, a liveness flip's (which keeps the per-route values and
    the memos) included; reservations flush nothing.
    """

    compat_hits: int = 0
    compat_misses: int = 0
    install_hits: int = 0
    install_misses: int = 0
    uncacheable: int = 0
    invalidations: int = 0


@dataclass
class ChainTables:
    """What :func:`~repro.planner.dp_chain.plan_dp_chain` keeps from one
    call to the next (the module describes the values), each keyed on
    exactly what it reads.  Chain shapes read only the spec, so they
    outlive every flush.  The other tables read conditions 1 and 2,
    reachability and route costs, i.e. what ``Network.structure_version``
    guards, liveness included, so :meth:`clear` drops them when it
    moves; nothing a reservation or the deployment state moves reaches
    any of them.
    """

    #: (interface, max units) -> chain shapes
    shapes: Dict[Tuple[str, int], List[Any]] = field(default_factory=dict)
    #: (unit, interface, :func:`context_key` of the unit, objective key)
    #: -> the fresh candidates, each table with the pair rows built from it
    candidates: Dict[Tuple, Any] = field(default_factory=dict)
    #: (interface, objective key) -> an open state's placement key ->
    #: its installed-provider row
    installed: Dict[Tuple, Dict[Tuple, Any]] = field(default_factory=dict)

    def clear(self) -> None:
        """Flush what a structure change can move (not the shapes)."""
        self.candidates.clear()
        self.installed.clear()


def _freeze_bag(props: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Hashable form of a property bag (raises TypeError if values aren't)."""
    frozen = tuple(sorted(props.items()))
    hash(frozen)
    return frozen


def context_key(
    unit: ComponentDef, context: Optional[Mapping[str, Any]]
) -> Tuple[Tuple[str, Any], ...]:
    """What condition 1 of ``unit`` reads of a request context: the
    context restricted to ``unit.condition_props``, in hashable form
    (raises TypeError if a value it reads is not hashable)."""
    if not context or not unit.condition_props:
        return ()
    frozen = tuple((p, context[p]) for p in unit.condition_props if p in context)
    hash(frozen)
    return frozen


class _LinkRow(dict):
    """One source's row of :meth:`PlanningContext.link_envs_from`."""

    def __init__(self, ctx: "PlanningContext", src: str) -> None:
        super().__init__()
        self._ctx = ctx
        self._src = src
        #: dst -> (hops, entry) of the last route resolved to it, kept
        #: across liveness flips
        self._routes = ctx._route_envs.setdefault(src, {})

    def __missing__(self, dst: str) -> Optional[Tuple[Dict[str, Any], Optional[int]]]:
        ctx = self._ctx
        try:
            path = ctx.network.path(self._src, dst)
        except NetworkError:
            entry = None
        else:
            kept = self._routes.get(dst)
            if kept is not None and kept[0] == path.hops:
                entry = kept[1]
            else:
                env = dict(ctx.translator.path_environment(path).values)
                entry = (env, ctx.bag_id(env))
                self._routes[dst] = (path.hops, entry)
        # The environment is the pair's, whichever end asks first.
        self[dst] = entry
        ctx.link_envs_from(dst)[self._src] = entry
        return entry


@dataclass
class PlanningContext:
    """Everything a planning algorithm needs to evaluate mappings."""

    spec: ServiceSpec
    network: Network
    translator: CredentialTranslator
    #: observability bundle shared by every algorithm using this context
    obs: Optional[Observability] = None
    #: memoize the condition-1/condition-2 checks (pure cache: results
    #: are identical with it off, every search just re-evaluates)
    memoize: bool = True

    def __post_init__(self) -> None:
        self.obs = resolve_obs(self.obs)
        self._node_env_cache: Dict[str, Dict[str, Any]] = {}
        self._link_rows: Dict[str, _LinkRow] = {}
        self._round_trip_cache: Dict[Tuple[str, str, int, int], float] = {}
        #: src -> dst -> (hops, (path environment, its bag id))
        self._route_envs: Dict[str, Dict[str, Tuple[Tuple, Any]]] = {}
        #: (src, dst, request bytes, response bytes) -> (hops, round trip)
        self._route_times: Dict[Tuple[str, str, int, int], Tuple[Tuple, float]] = {}
        self._implements_cache: Dict[Tuple[str, str], Dict[str, Dict[str, Any]]] = {}
        self._requires_cache: Dict[Tuple[str, str], List[Tuple[str, Dict[str, Any]]]] = {}
        self._bag_ids: Dict[Tuple[Tuple[str, Any], ...], int] = {}
        self._compat_cache: Dict[Tuple[int, int, int], bool] = {}
        self._install_cache: Dict[Tuple, bool] = {}
        self._chain_tables = ChainTables()
        self.cache_stats = ContextCacheStats()
        self._net_version = self.network.structure_version
        self._graph_version = self.network.graph_version

    # -- environments -------------------------------------------------------
    def _check_version(self) -> None:
        network = self.network
        if network.structure_version == self._net_version:
            return
        # What reads liveness: which route a pair takes, and whether it
        # has one, and the tables built from those or from installability.
        self._link_rows.clear()
        self._round_trip_cache.clear()
        self._chain_tables.clear()
        self.cache_stats.invalidations += 1
        self._net_version = network.structure_version
        if network.graph_version != self._graph_version:
            # The graph or an attribute moved: everything else too.
            self._node_env_cache.clear()
            self._route_envs.clear()
            self._route_times.clear()
            self._implements_cache.clear()
            self._requires_cache.clear()
            self._bag_ids.clear()
            self._compat_cache.clear()
            self._install_cache.clear()
            self._graph_version = network.graph_version

    def node_env(self, node: str, context: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Service properties of a node (credential-translated), merged
        with request-scope context if given."""
        self._check_version()
        base = self._node_env_cache.get(node)
        if base is None:
            base = dict(self.translator.node_environment(self.network.node(node)).values)
            self._node_env_cache[node] = base
        if not context:
            return base
        merged = dict(base)
        merged.update(context)
        return merged

    def chain_tables(self) -> Optional[ChainTables]:
        """The DP planner's tables for the network as it stands, or
        ``None`` with ``memoize`` off (the planner then builds what it
        needs and keeps nothing).  Ask once per planning call; do not
        hold the result across network changes."""
        if not self.memoize:
            return None
        self._check_version()
        return self._chain_tables

    def link_envs_from(self, src: str) -> "_LinkRow":
        """``row[dst]`` is ``(path environment, its bag id)`` for a
        routable pair and ``None`` across a partition — reachability and
        condition 2's environment in one dict lookup.  Planners must
        skip pairs that yield ``None``.  Entries are resolved on first
        lookup (which also fixes the pair's route, see
        :meth:`Network.path`) — from the kept value when the pair still
        takes the hops it was computed on; do not hold a row across
        network changes."""
        self._check_version()
        row = self._link_rows.get(src)
        if row is None:
            row = self._link_rows[src] = _LinkRow(self, src)
        return row

    def link_env(
        self, src: str, dst: str
    ) -> Optional[Tuple[Dict[str, Any], Optional[int]]]:
        """One entry of :meth:`link_envs_from`."""
        return self.link_envs_from(src)[dst]

    def path(self, src: str, dst: str) -> PathInfo:
        return self.network.path(src, dst)

    def reachable(self, src: str, dst: str) -> bool:
        """Is there any route between the nodes?  Planners must skip
        candidate pairs that a partition separates."""
        return self.link_env(src, dst) is not None

    def round_trip_ms(
        self, src: str, dst: str, request_bytes: int, response_bytes: int
    ) -> float:
        """Analytic request/response round trip along the pair's route,
        kept per pair until the next structure change, and with the hops
        it was computed on until the next graph change."""
        self._check_version()
        key = (src, dst, request_bytes, response_bytes)
        ms = self._round_trip_cache.get(key)
        if ms is None:
            path = self.network.path(src, dst)
            kept = self._route_times.get(key)
            if kept is not None and kept[0] == path.hops:
                ms = kept[1]
            else:
                ms = (
                    path.transfer_time_ms(request_bytes)
                    + path.transfer_time_ms(response_bytes)
                )
                self._route_times[key] = (path.hops, ms)
            self._round_trip_cache[key] = ms
        return ms

    # -- condition 1: installability -------------------------------------------
    def installable(
        self,
        unit: ComponentDef,
        node: str,
        context: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """Can ``unit`` be instantiated on ``node`` (install conditions)?

        A node the failure detector has declared dead hosts nothing —
        this is the single gate through which every search algorithm's
        candidate enumeration excludes failed hosts during failover
        replanning.

        Memoized per (component, node, :func:`context_key`); liveness is
        read live, ahead of the memo, so a dead node can never serve a
        stale ``True`` and a liveness flip need not flush the memo.
        """
        if not self.network.node(node).up:
            return False
        if not self.memoize:
            return self._installable_eval(unit, node, context)
        self._check_version()
        stats = self.cache_stats
        try:
            key = (unit.name, node, context_key(unit, context))
        except TypeError:
            stats.uncacheable += 1
            return self._installable_eval(unit, node, context)
        verdict = self._install_cache.get(key)
        if verdict is not None:
            stats.install_hits += 1
            return verdict
        stats.install_misses += 1
        verdict = self._installable_eval(unit, node, context)
        self._install_cache[key] = verdict
        return verdict

    def _installable_eval(
        self,
        unit: ComponentDef,
        node: str,
        context: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        return unit.installable_in(self.node_env(node, context))

    def instantiate(
        self, unit: ComponentDef, node: str, context: Optional[Mapping[str, Any]] = None
    ) -> Optional[Placement]:
        """Condition 1 + factor binding: ``unit`` placed on ``node``, or
        None if it cannot live there (its install conditions fail under
        the request ``context``, or a Factor cannot be bound)."""
        if not self.installable(unit, node, context):
            return None
        factors = self.resolve_factors(unit, node)
        if any(v is None for v in factors.values()):
            return None  # a Factor could not be bound from this environment
        return Placement(
            unit=unit.name,
            node=node,
            factor_values=freeze_props(factors),
            implemented=freeze_implemented(self.resolved_implements(unit, node)),
            reused=False,
        )

    def resolve_factors(self, unit: ComponentDef, node: str) -> Dict[str, Any]:
        """Bind a view's Factors against the node environment (empty for
        plain components)."""
        if isinstance(unit, ViewDef) and unit.factors:
            return resolve_env_refs(unit.factors, self.node_env(node))
        return {}

    def resolved_implements(
        self, unit: ComponentDef, node: str
    ) -> Dict[str, Dict[str, Any]]:
        """Implemented-interface properties as generated on ``node``.

        ``Node.X`` references resolve against the node environment,
        overridden by the view's bound factor values (a configured
        ``ViewMailServer`` exposes its *factor* trust level).
        Cached per (unit, node) — these are hot lookups in every search.
        """
        self._check_version()
        key = (unit.name, node)
        cached = self._implements_cache.get(key)
        if cached is not None:
            return cached
        env = dict(self.node_env(node))
        env.update({k: v for k, v in self.resolve_factors(unit, node).items() if v is not None})
        resolved = {
            b.interface: resolve_env_refs(b.properties, env) for b in unit.implements
        }
        self._implements_cache[key] = resolved
        return resolved

    def resolved_requires(
        self, unit: ComponentDef, node: str
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """Required-interface properties as demanded from ``node``."""
        self._check_version()
        key = (unit.name, node)
        cached = self._requires_cache.get(key)
        if cached is not None:
            return cached
        env = dict(self.node_env(node))
        env.update({k: v for k, v in self.resolve_factors(unit, node).items() if v is not None})
        resolved = [
            (b.interface, resolve_env_refs(b.properties, env)) for b in unit.requires
        ]
        self._requires_cache[key] = resolved
        return resolved

    def required_props(
        self, unit: ComponentDef, node: str, iface: str
    ) -> Optional[Dict[str, Any]]:
        """What ``unit`` on ``node`` requires of ``iface``; None if it does
        not require that interface."""
        for req_iface, props in self.resolved_requires(unit, node):
            if req_iface == iface:
                return props
        return None

    # -- condition 2: property compatibility ----------------------------------
    def link_ok(
        self, required: Mapping[str, Any], implemented: Mapping[str, Any], src: str, dst: str
    ) -> Optional[bool]:
        """Condition 2 for one linkage from ``src`` to ``dst``: None when a
        partition separates the nodes, else whether ``implemented``,
        transformed by the path environment, satisfies ``required``.
        The route is resolved here, on first lookup of the pair."""
        link = self.link_env(src, dst)
        if link is None:
            return None
        return self.properties_compatible(required, implemented, link[0])

    def root_nodes(self, request: PlanRequest) -> List[str]:
        """Where the root of a plan for ``request`` may be placed."""
        if request.root_on_client:
            return [request.client_node]
        return [n.name for n in self.network.nodes()]

    def root_ok(self, request: PlanRequest, placement: Placement) -> bool:
        """Can ``placement`` be the root of a plan for ``request``?  It
        must sit on one of the :meth:`root_nodes`, implement the requested
        interface and, delivered at the client's node, meet the client's
        ``required_properties`` (condition 2 between client and root)."""
        if request.root_on_client and placement.node != request.client_node:
            return False
        impl = placement.implemented_props(request.interface)
        if impl is None:
            return False
        required = request.required_properties
        return not required or bool(
            self.link_ok(required, impl, request.client_node, placement.node)
        )

    def match_mode(self, prop: str) -> str:
        pdef = self.spec.properties.get(prop)
        return pdef.match_mode if pdef is not None else "exact"

    def transform_through_env(
        self, implemented: Mapping[str, Any], env: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """Apply the service's property-modification rules for a path env."""
        return self.spec.rules.transform(implemented, env)

    def properties_compatible(
        self,
        required: Mapping[str, Any],
        implemented: Mapping[str, Any],
        env: Mapping[str, Any],
    ) -> bool:
        """Does ``implemented`` (transformed by ``env``) satisfy ``required``?

        The implemented property set must be a *superset*: every required
        property must be present (or implemented as ANY) and its
        environment-transformed value must satisfy the requirement under
        the property's match mode.

        Memoized by the interned (required, implemented, env) bags — the
        same triple recurs constantly across search branches because the
        planner revisits identical (interface properties, path
        environment) pairs from different partial deployments.  The memo
        is flushed with the environment caches when
        ``Network.graph_version`` moves.
        """
        if not self.memoize:
            return self._compatible_eval(required, implemented, env)
        return self.compatible_interned(
            required, self.bag_id(required),
            implemented, self.bag_id(implemented),
            env, self.bag_id(env),
        )

    def bag_id(self, props: Mapping[str, Any]) -> Optional[int]:
        """Small-int identity of a property bag's content, for
        :meth:`compatible_interned`; ``None`` when a value is unhashable.
        Ids are only comparable until ``Network.graph_version`` moves."""
        try:
            frozen = _freeze_bag(props)
        except TypeError:
            return None
        return self.frozen_bag_id(frozen)

    def frozen_bag_id(self, frozen: Tuple[Tuple[str, Any], ...]) -> int:
        """:meth:`bag_id` of a bag already in sorted-items form (how
        :class:`~repro.planner.plan.Placement` stores ``implemented``)."""
        self._check_version()
        ids = self._bag_ids
        bag = ids.get(frozen)
        if bag is None:
            bag = ids[frozen] = len(ids)
        return bag

    def compatible_interned(
        self,
        required: Mapping[str, Any],
        required_id: Optional[int],
        implemented: Mapping[str, Any],
        implemented_id: Optional[int],
        env: Mapping[str, Any],
        env_id: Optional[int],
    ) -> bool:
        """:meth:`properties_compatible` for bags the caller interned
        once (:meth:`bag_id`) and checks many times.  The ids must come
        from this context since ``Network.graph_version`` last moved —
        e.g. from the same planning call."""
        if not self.memoize:
            return self._compatible_eval(required, implemented, env)
        stats = self.cache_stats
        if required_id is None or implemented_id is None or env_id is None:
            stats.uncacheable += 1
            return self._compatible_eval(required, implemented, env)
        key = (required_id, implemented_id, env_id)
        verdict = self._compat_cache.get(key)
        if verdict is not None:
            stats.compat_hits += 1
            return verdict
        stats.compat_misses += 1
        verdict = self._compatible_eval(required, implemented, env)
        self._compat_cache[key] = verdict
        return verdict

    def _compatible_eval(
        self,
        required: Mapping[str, Any],
        implemented: Mapping[str, Any],
        env: Mapping[str, Any],
    ) -> bool:
        if not required:
            return True
        delivered = self.transform_through_env(implemented, env)
        for prop, req_value in required.items():
            actual = delivered.get(prop)
            if prop not in implemented:
                # Missing from the implementation: not vouched for.
                actual = None
            if not satisfies(req_value, actual, self.match_mode(prop)):
                return False
        return True
