"""Deployment-plan caching: skip the search when nothing changed.

The planner's search is the dominant cost of a client bind (the paper's
Figure 6 shows planning time exploding with network size), yet its
output is a pure function of four things: the search algorithm, the
global objective, the client's :class:`~repro.planner.plan.PlanRequest`,
and the world it plans against — the installed
:class:`~repro.planner.plan.DeploymentState` plus the network topology.

:class:`PlanCache` memoizes that function.  The network half of the
world is captured by the **topology epoch** —
``Network.state_fingerprint()``, a content hash over every
planning-relevant node/link attribute, recomputed whenever a mutation
bumps ``Network.version``: liveness flips from the failure detector,
link attribute perturbations from the :class:`~repro.network.monitor.
NetworkMonitor`, credential changes, and the capacity reservations
``Planner.commit`` and replan rounds make (via ``Network.reserve``).  Entries are keyed
*under* their epoch rather than flushed when it changes: any mutation
makes every existing entry unmatchable (correctness), but a network
that returns to a previously seen state — a crashed node restarting, a
flapping link — revalidates the plans solved there, so recurring fault
patterns replan in O(1).  Stale epochs age out of the LRU naturally.

This is the only planner table keyed on that epoch.  Below it a commit
flushes nothing: routes, environments, the condition-1/2 memos and the
DP planner's chain shapes, candidate tables and pair rows
(:class:`~repro.planner.compat.ChainTables`) are keyed on
``Network.structure_version``, which a reservation does not move —
while whatever reads a reservation (condition 3, the exact score, the
completions one ``plan_dp_chain`` call has already scored) is
recomputed by every search.

The cache returns *copies* of stored plans (placements are frozen and
shared; the mutable plan shell — lists, metrics dict, score — is fresh
per hit) so callers may annotate a hit without corrupting the cache.

A miss-path search is byte-identical to an uncached one; a hit returns a
plan structurally equal to what the search would have produced, because
every input that could change the answer is part of the key or the
epoch.  ``tests/planner/test_cache.py`` guards both claims.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Optional, Tuple

from .plan import DeploymentPlan, DeploymentState, PlanRequest

__all__ = ["PlanCache", "PlanCacheStats"]


@dataclass
class PlanCacheStats:
    """Hit/miss accounting for one :class:`PlanCache`.

    ``invalidations`` counts topology-epoch transitions observed at
    lookup/store time — each one makes every previously stored entry
    unmatchable until (unless) the network returns to that exact state;
    ``evictions`` counts LRU drops; ``uncacheable`` counts requests
    whose context/properties were not hashable (served by a direct
    search, never stored).
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    uncacheable: int = 0


#: plans kept before the least recently used one is evicted
PLAN_CACHE_SIZE = 128


def _freeze(mapping: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    frozen = tuple(sorted(mapping.items()))
    hash(frozen)
    return frozen


def _clone_plan(plan: DeploymentPlan) -> DeploymentPlan:
    """Fresh mutable shell around the (frozen, shared) placements."""
    return DeploymentPlan(
        placements=list(plan.placements),
        linkages=list(plan.linkages),
        root=plan.root,
        client_node=plan.client_node,
        score=plan.score,
        metrics=dict(plan.metrics),
    )


class PlanCache:
    """LRU cache of finished deployment plans, keyed by the full search
    input and guarded by the network's topology epoch.

    Used through :meth:`~repro.planner.planner.Planner.run_search`; not
    tied to one planner instance, so a cache may be shared by several
    planners over the same network (multi-service hosting).
    """

    def __init__(self) -> None:
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[Hashable, Optional[DeploymentPlan]]" = OrderedDict()
        self._epoch: Optional[int] = None

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    # -- keying -------------------------------------------------------------
    def key_for(
        self,
        algorithm: str,
        objective_key: Tuple[Any, ...],
        request: PlanRequest,
        state: DeploymentState,
    ) -> Optional[Hashable]:
        """Fingerprint of everything (besides topology) a search reads.

        Returns None when the request carries unhashable values — such
        requests bypass the cache entirely.
        """
        try:
            request_fp = (
                request.interface,
                request.client_node,
                _freeze(request.context),
                _freeze(request.required_properties),
                request.request_rate,
                request.max_units,
                request.root_on_client,
            )
            # Placement keys are (unit, node, factor_values) and already
            # hashable; sort by repr so mixed-type factor values cannot
            # break ordering.  committed_rates is reporting-only state —
            # no algorithm reads it — so it is deliberately excluded.
            state_fp = tuple(sorted(state._placements.keys(), key=repr))
            key = (algorithm, objective_key, request_fp, state_fp)
            hash(key)
        except TypeError:
            self.stats.uncacheable += 1
            return None
        return key

    # -- epoch guard --------------------------------------------------------
    def _sync_epoch(self, epoch: int) -> None:
        """Track epoch transitions (for the ``invalidations`` counter).

        Entries are keyed under their epoch, so nothing is flushed here:
        a transition merely makes stored entries unmatchable until the
        network returns to their state.
        """
        if self._epoch != epoch:
            if self._epoch is not None and self._entries:
                self.stats.invalidations += 1
            self._epoch = epoch

    # -- lookup/store -------------------------------------------------------
    def lookup(self, epoch: int, key: Hashable) -> Tuple[bool, Optional[DeploymentPlan]]:
        """``(found, plan)``; ``(True, None)`` is a cached *failure*
        (the search proved no valid deployment exists at this epoch)."""
        self._sync_epoch(epoch)
        entry_key = (epoch, key)
        if entry_key not in self._entries:
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        self._entries.move_to_end(entry_key)
        plan = self._entries[entry_key]
        return True, _clone_plan(plan) if plan is not None else None

    def store(self, epoch: int, key: Hashable, plan: Optional[DeploymentPlan]) -> None:
        self._sync_epoch(epoch)
        self._entries[(epoch, key)] = _clone_plan(plan) if plan is not None else None
        self._entries.move_to_end((epoch, key))
        while len(self._entries) > PLAN_CACHE_SIZE:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"<PlanCache entries={len(self._entries)} epoch={self._epoch} "
            f"hits={s.hits} misses={s.misses} invalidations={s.invalidations}>"
        )
