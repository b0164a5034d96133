"""Tests for the plan cache and the fast-path guarantees.

Covers the ISSUE acceptance criteria: a repeated identical request is a
cache hit; node crashes, credential changes and capacity reservations
all invalidate; and with the fast path disabled the produced plans are
byte-identical to the fast path's (the caches are pure).
"""

import pytest

from repro.experiments.topology_fig5 import build_fig5_network
from repro.planner import (
    ALGORITHMS,
    DeploymentState,
    PlanCache,
    Planner,
    PlanningError,
    PlanRequest,
)
from repro.planner.cache import PLAN_CACHE_SIZE
from repro.services.mail import build_mail_spec, mail_translator


def make_planner(**kwargs):
    kwargs.setdefault("algorithm", "exhaustive")
    topo = build_fig5_network(clients_per_site=2)
    p = Planner(build_mail_spec(), topo.network, mail_translator(), **kwargs)
    p.preinstall("MailServer", topo.server_node)
    return p


def bob():
    return PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})


def carol():
    return PlanRequest("ClientInterface", "seattle-client1", context={"User": "Carol"})


def plan_fp(plan):
    """Byte-level fingerprint of a plan's content.

    ``metrics`` is excluded: it carries per-search wall times, which are
    instrumentation about how the plan was found, not part of the plan.
    """
    return (
        repr(plan.placements),
        repr(plan.linkages),
        plan.root,
        plan.client_node,
        repr(plan.score),
    )


# -- hits ---------------------------------------------------------------------

def test_repeated_identical_request_hits():
    p = make_planner()
    first = p.plan(bob())
    assert p.last_stats is not None  # a search ran
    second = p.plan(bob())
    assert p.last_stats is None  # answered from the cache
    assert p.plan_cache.stats.hits == 1
    assert plan_fp(first) == plan_fp(second)


def test_cached_hit_returns_independent_copy():
    p = make_planner()
    first = p.plan(bob())
    first.metrics["annotated"] = True
    first.placements.clear()
    second = p.plan(bob())
    assert second.placements, "cache entry was corrupted by caller mutation"
    assert "annotated" not in second.metrics


def test_failures_are_cached_too():
    p = make_planner()
    # DecryptorInterface from a leaf with max_units=1 is unsatisfiable
    # (same request as in test_facade).
    req = PlanRequest("DecryptorInterface", "seattle-client1", max_units=1)
    with pytest.raises(PlanningError):
        p.plan(req)
    with pytest.raises(PlanningError):
        p.plan(req)
    assert p.plan_cache.stats.misses == 1
    assert p.plan_cache.stats.hits == 1


def test_cache_shared_across_planners():
    topo = build_fig5_network(clients_per_site=2)
    cache = PlanCache()
    planners = []
    for _ in range(2):
        p = Planner(
            build_mail_spec(), topo.network, mail_translator(),
            algorithm="exhaustive", plan_cache=cache,
        )
        p.preinstall("MailServer", topo.server_node)
        planners.append(p)
    a = planners[0].plan(bob())
    b = planners[1].plan(bob())  # same network, same installed state
    assert cache.stats.hits == 1
    assert plan_fp(a) == plan_fp(b)


# -- invalidation -------------------------------------------------------------

def test_node_crash_invalidates():
    p = make_planner()
    before = p.plan(bob())
    # seattle-gw plays no part in Bob's plan, but its liveness is part
    # of the topology epoch: the cached entry must not be served.
    p.network.set_node_up("seattle-gw", False)
    after = p.plan(bob())
    assert p.plan_cache.stats.hits == 0
    assert p.last_stats is not None  # a real search ran
    assert plan_fp(before) == plan_fp(after)  # same world for Bob


def test_recurring_topology_state_rehits():
    """A crash/restart cycle returns the network to a previously seen
    fingerprint; the plans solved there become valid again."""
    p = make_planner()
    p.plan(bob())
    p.network.set_node_up("seattle-gw", False)
    p.plan(bob())
    p.network.set_node_up("seattle-gw", True)
    p.plan(bob())
    assert p.plan_cache.stats.hits == 1
    assert p.plan_cache.stats.misses == 2


def test_credential_change_invalidates():
    p = make_planner()
    p.plan(bob())
    p.network.node("seattle-gw").credentials["trust_level"] = 1
    p.network.touch()
    p.plan(bob())
    assert p.plan_cache.stats.hits == 0
    assert p.plan_cache.stats.misses == 2


def test_capacity_reservation_invalidates():
    p = make_planner()
    plan = p.plan(bob())
    p.commit(plan, request_rate=10.0)  # reserves CPU/bandwidth, touches
    p.plan(bob())
    assert p.plan_cache.stats.hits == 0
    assert p.plan_cache.stats.misses == 2


def test_installed_state_is_part_of_the_key():
    p = make_planner()
    p.plan(carol())
    # Installing a component changes the DeploymentState fingerprint:
    # the same request must re-search (it may now reuse the new unit).
    p.preinstall("ViewMailServer", "sandiego-gw")
    p.plan(carol())
    assert p.plan_cache.stats.hits == 0


# -- bounds and edge cases ----------------------------------------------------

def test_lru_eviction():
    """Past PLAN_CACHE_SIZE entries the least recently used one goes."""
    cache = PlanCache()
    for key in range(PLAN_CACHE_SIZE):
        cache.store(0, key, None)
    assert cache.lookup(0, 0) == (True, None)  # key 0 is now the freshest
    cache.store(0, "one more", None)  # evicts key 1
    assert cache.stats.evictions == 1
    assert len(cache) == PLAN_CACHE_SIZE
    assert cache.lookup(0, 1) == (False, None)
    assert cache.lookup(0, 0) == (True, None)


def test_unhashable_request_bypasses_cache():
    cache = PlanCache()
    req = PlanRequest(
        "ClientInterface", "x", context={"User": ["not", "hashable"]}
    )
    key = cache.key_for("exhaustive", ("ExpectedLatency",), req, DeploymentState())
    assert key is None
    assert cache.stats.uncacheable == 1


# -- purity guard -------------------------------------------------------------

@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_plans_byte_identical_with_fast_path_off(algorithm):
    """The acceptance guard: memoization and plan caching are pure.

    For every algorithm and several requests, the plan produced with the
    fast path fully disabled is byte-identical to the miss-path plan
    with it enabled — and to the subsequent cache hit.
    """
    baseline = make_planner(algorithm=algorithm, plan_cache=False, memoize=False)
    fast = make_planner(algorithm=algorithm)
    requests = [
        bob(),
        carol(),
        PlanRequest("ClientInterface", "newyork-client1", context={"User": "Alice"}),
    ]
    for req in requests:
        slow_plan = baseline.plan(req)
        miss_plan = fast.plan(req)
        hit_plan = fast.plan(req)
        assert plan_fp(slow_plan) == plan_fp(miss_plan) == plan_fp(hit_plan)
    assert fast.plan_cache.stats.hits == len(requests)
