"""High-level planning facade used by the Smock runtime.

Owns the :class:`PlanningContext`, the persistent
:class:`DeploymentState`, and capacity reservations: when a plan is
*committed*, its steady-state CPU and bandwidth demands are reserved on
the network model so later plans see reduced free capacity (condition 3
across successive client requests).

The facade also owns the planner **fast path**: a
:class:`~repro.planner.cache.PlanCache` consulted by
:meth:`Planner.run_search` before any algorithm runs (a repeated client
bind against an unchanged world returns the stored plan in O(1)), and
the memoized validity checks inside :class:`PlanningContext`.  Both are
pure caches — disable them (``plan_cache=False``, ``memoize=False``)
and every produced plan is byte-identical, just slower.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Callable, Dict, Literal, Optional, Tuple, Union

from ..network import CredentialTranslator, Network
from ..obs import Observability, resolve_obs
from ..spec import ServiceSpec
from .cache import PlanCache
from .compat import PlanningContext
from .dp_chain import DPStats, plan_dp_chain
from .exhaustive import SearchStats, plan_exhaustive
from .load import LoadReport, compute_loads, plan_rate
from .objectives import ExpectedLatency, Objective
from .plan import DeploymentPlan, DeploymentState, Placement, PlanRequest

__all__ = ["Planner", "PlanningError", "ALGORITHMS"]


class PlanningError(RuntimeError):
    """No deployment satisfying all constraints exists."""


ALGORITHMS: Dict[str, Callable[..., Optional[DeploymentPlan]]] = {
    "exhaustive": plan_exhaustive,
    "dp_chain": plan_dp_chain,
}

#: per-algorithm instrumentation record types (externally registered
#: algorithms simply run without a stats object)
STATS_FACTORIES: Dict[str, Callable[[], Any]] = {
    "exhaustive": SearchStats,
    "dp_chain": DPStats,
}


class Planner:
    """The framework's planning module (paper §3.3).

    The facade every caller (Smock runtime, replanner, CLI, benchmarks)
    goes through.  It holds:

    - :attr:`ctx` — the :class:`PlanningContext` (spec + network +
      credential translator + memoized validity checks) shared by all
      algorithms;
    - :attr:`state` — the :class:`DeploymentState` of already-installed
      placements that later plans may reuse;
    - :attr:`plan_cache` — the :class:`~repro.planner.cache.PlanCache`
      consulted before any search runs.

    Parameters
    ----------
    objective:
        Global objective steering plan selection; defaults to
        :class:`~repro.planner.objectives.ExpectedLatency`.
    algorithm:
        Default search algorithm, one of :data:`ALGORITHMS`:
        ``"exhaustive"`` searches any component graph, fan-out included,
        and is the exact reference; ``"dp_chain"`` is the fast path for
        chain graphs and finds no plan for anything else.
    plan_cache:
        ``None`` (default) creates a private :class:`PlanCache`;
        ``False`` disables plan caching; an explicit :class:`PlanCache`
        instance may be shared across planners over the same network.
    memoize:
        Toggles the :class:`PlanningContext` validity-check memos.
    """

    def __init__(
        self,
        spec: ServiceSpec,
        network: Network,
        translator: CredentialTranslator,
        objective: Optional[Objective] = None,
        algorithm: str = "exhaustive",
        obs: Optional[Observability] = None,
        plan_cache: Union[PlanCache, None, Literal[False]] = None,
        memoize: bool = True,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}"
            )
        self.obs = resolve_obs(obs)
        self.ctx = PlanningContext(
            spec, network, translator, obs=self.obs, memoize=memoize
        )
        self.state = DeploymentState()
        self.objective = objective or ExpectedLatency()
        self.algorithm = algorithm
        if plan_cache is None:
            plan_cache = PlanCache()
        elif plan_cache is False:
            plan_cache = None
        self.plan_cache: Optional[PlanCache] = plan_cache
        #: instrumentation record of the most recent :meth:`plan` call
        #: (``None`` when the plan cache answered without a search)
        self.last_stats: Optional[Any] = None
        self._flushed_cache_stats: Dict[str, Dict[str, int]] = {}

    @property
    def spec(self) -> ServiceSpec:
        return self.ctx.spec

    @property
    def network(self) -> Network:
        return self.ctx.network

    # -- bootstrap -----------------------------------------------------------
    def preinstall(self, unit_name: str, node: str) -> Placement:
        """Register an already-running component (e.g. the primary
        MailServer the service operator stood up in New York)."""
        unit = self.spec.unit(unit_name)
        placement = self.ctx.instantiate(unit, node)
        if placement is None:
            raise PlanningError(
                f"{unit_name!r} does not satisfy its installation conditions on {node!r}"
            )
        return self.state.add(placement)

    # -- planning ---------------------------------------------------------------
    def run_search(
        self,
        request: PlanRequest,
        state: Optional[DeploymentState] = None,
        algorithm: Optional[str] = None,
        objective: Optional[Objective] = None,
        stats: Optional[Any] = None,
    ) -> Tuple[Optional[DeploymentPlan], bool]:
        """Run one search through the plan cache.

        The single entry point every plan computation goes through
        (:meth:`plan`, and the replanner's per-binding re-solves): looks
        up the :attr:`plan_cache` under the network's current topology
        epoch, and only on a miss invokes the search algorithm — then
        stores the result, including *failures*, so a repeated
        unsatisfiable request is also O(1).

        Returns ``(plan_or_None, from_cache)``.  ``state`` defaults to
        the planner's own installed state; pass an explicit one to
        search a hypothetical world (the replanner's seeded states).
        """
        algo = algorithm or self.algorithm
        fn = ALGORITHMS[algo]
        obj = objective or self.objective
        search_state = self.state if state is None else state
        cache = self.plan_cache
        key = None
        if cache is not None:
            obj_key = getattr(obj, "cache_key", None) or (type(obj).__name__,)
            key = cache.key_for(algo, obj_key, request, search_state)
            if key is not None:
                epoch = self.network.state_fingerprint()
                found, plan = cache.lookup(epoch, key)
                if found:
                    self._flush_cache_metrics()
                    return plan, True
        if stats is not None:
            plan = fn(self.ctx, request, search_state, obj, stats=stats)
        else:
            plan = fn(self.ctx, request, search_state, obj)
        if cache is not None and key is not None:
            cache.store(self.network.state_fingerprint(), key, plan)
        self._flush_cache_metrics()
        return plan, False

    def _flush_cache_metrics(self) -> None:
        """Export fast-path counter deltas to the metrics registry.

        The hot loops keep plain integer counters
        (:class:`~repro.planner.compat.ContextCacheStats`,
        :class:`~repro.planner.cache.PlanCacheStats`); this flushes their
        growth since the previous flush as ``planner.ctx_cache.*`` and
        ``planner.plan_cache.*`` metrics, once per search.  Both records
        hold ints only, so a flat copy of their fields is the snapshot.
        """
        m = self.obs.metrics
        if not m.enabled:
            return
        sources = [("planner.ctx_cache", vars(self.ctx.cache_stats).copy())]
        if self.plan_cache is not None:
            sources.append(("planner.plan_cache", vars(self.plan_cache.stats).copy()))
        for prefix, snap in sources:
            prev = self._flushed_cache_stats.get(prefix, {})
            for counter_name, value in snap.items():
                delta = value - prev.get(counter_name, 0)
                if delta:
                    m.inc(f"{prefix}.{counter_name}", delta)
            self._flushed_cache_stats[prefix] = snap

    def plan(
        self,
        request: PlanRequest,
        algorithm: Optional[str] = None,
        objective: Optional[Objective] = None,
    ) -> DeploymentPlan:
        """Compute the best deployment for ``request``.

        Consults the plan cache first (see :meth:`run_search`); on a
        hit, :attr:`last_stats` is ``None`` because no search ran.
        Raises :class:`PlanningError` when no valid mapping exists.
        """
        algo = algorithm or self.algorithm
        obs = self.obs
        stats_factory = STATS_FACTORIES.get(algo)
        stats = stats_factory() if stats_factory is not None else None
        with obs.tracer.span(
            "planner.plan",
            interface=request.interface,
            client_node=request.client_node,
            algorithm=algo,
        ) as span:
            t0 = time.perf_counter()
            plan, from_cache = self.run_search(
                request, algorithm=algo, objective=objective, stats=stats
            )
            wall_ms = (time.perf_counter() - t0) * 1e3
            span.set(found=plan is not None, cached=from_cache)
        self.last_stats = None if from_cache else stats
        if obs.metrics.enabled:
            m = obs.metrics
            if stats is not None and not from_cache:
                for counter_name, value in dataclasses.asdict(stats).items():
                    if value:
                        m.inc(f"planner.{counter_name}", value, algorithm=algo)
            m.observe("planner.plan_wall_ms", wall_ms, algorithm=algo)
            m.inc(
                "planner.plans_computed" if plan is not None
                else "planner.plans_failed",
                1,
                algorithm=algo,
            )
        if plan is None:
            raise PlanningError(
                f"no valid deployment for {request.interface!r} "
                f"at {request.client_node!r}"
            )
        return plan

    def replan_incremental(
        self,
        request: PlanRequest,
        previous: DeploymentPlan,
        state: Optional[DeploymentState] = None,
        installed_keys: Optional[set] = None,
        algorithm: Optional[str] = None,
    ) -> Optional[DeploymentPlan]:
        """Re-plan one binding seeded from its previous plan's survivors.

        ``installed_keys``, when given, restricts seeding to placements
        actually installed right now (a survivor whose instance failover
        reconciliation purged must not be offered for reuse).  A seeded
        search that comes up empty falls back to the plain search, so
        the result is never worse than replanning from scratch; a seeded
        plan is passed through
        :func:`~repro.planner.incremental.graft_survivor_subtrees` so it
        describes its full wiring.  Both searches go through
        :meth:`run_search`, so repeated fault-triggered replans of
        identical bindings hit the plan cache.  Emits
        ``planner.incremental.*`` counters.
        """
        from .incremental import graft_survivor_subtrees, surviving_placements

        base = self.state if state is None else state
        survivors = surviving_placements(self.ctx, previous, request.context)
        if installed_keys is not None:
            survivors = [p for p in survivors if p.key in installed_keys]
        fresh = [p for p in survivors if p.key not in base]
        m = self.obs.metrics
        if not fresh:
            plan, _ = self.run_search(request, state=base, algorithm=algorithm)
            return plan
        seeded = base.clone()
        for placement in fresh:
            seeded.add(placement)
        plan, _ = self.run_search(request, state=seeded, algorithm=algorithm)
        if plan is not None:
            m.inc("planner.incremental.rounds")
            m.inc("planner.incremental.seeded_placements", len(fresh))
            return graft_survivor_subtrees(
                previous, plan, {p.key for p in fresh}
            )
        m.inc("planner.incremental.fallbacks")
        plan, _ = self.run_search(request, state=base, algorithm=algorithm)
        return plan

    def commit(self, plan: DeploymentPlan, request_rate: float = 0.0) -> LoadReport:
        """Accept a plan: install its placements and reserve capacity."""
        if math.isnan(request_rate):
            # A NaN reservation would make every later condition-3 check
            # on the plan's nodes and links pass.
            raise ValueError("NaN request_rate")
        report = compute_loads(self.ctx, plan, plan_rate(self.ctx, plan, request_rate))
        self.network.reserve(report.node_cpu, report.link_mbps)
        self.state.absorb(plan, report.inbound)
        self.obs.metrics.inc("planner.commits")
        return report

    def plan_and_commit(
        self, request: PlanRequest, algorithm: Optional[str] = None
    ) -> Tuple[DeploymentPlan, LoadReport]:
        plan = self.plan(request, algorithm)
        report = self.commit(plan, request.request_rate)
        return plan, report

    def what_if(
        self,
        request: PlanRequest,
        mutate: Callable[[Network], None],
        algorithm: Optional[str] = None,
    ) -> Optional[DeploymentPlan]:
        """Plan against a hypothetical network without touching live state.

        ``mutate`` receives a deep snapshot of the network and applies
        the hypothesis (a link upgrade, a node loss...).  Returns the
        plan the current deployment state would yield under that
        hypothesis, or None if none exists — the live network, caches
        and reservations are untouched.  Useful for capacity questions
        ("would a VPN on this link retire the crypto pair?") before
        committing to infrastructure changes.
        """
        snapshot = self.ctx.network.snapshot()
        mutate(snapshot)
        snapshot.touch()
        hypothetical = PlanningContext(
            self.spec, snapshot, self.ctx.translator, obs=self.obs,
            memoize=self.ctx.memoize,
        )
        fn = ALGORITHMS[algorithm or self.algorithm]
        return fn(hypothetical, request, self.state, self.objective)
