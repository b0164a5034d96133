"""What survives a commit, and what flushes the planner's tables.

A committed plan only *reserves capacity*: routes, path environments,
install verdicts, condition-2 verdicts and the DP planner's candidate
tables, pair rows and installed-provider rows are functions of the
graph, liveness, link attributes and credentials, so they must survive it
(``Network.touch_reservations``) — while the plan-cache epoch
(``version`` / ``state_fingerprint``) must still move, because
condition 3 reads the reservations, and nothing that read them (a
load check, an exact score) may be kept from one plan to the next.
A liveness flip (a crashed router, a partitioned link) must flush what
reads liveness — which route a pair takes, and the DP's tables — but
keep what a route's hops alone decide (its environment and transfer
times) and the verdicts that read no route.  Every other kind of change
must flush all of them but the DP's chain shapes, which read only the
spec.  Of a request context, the tables read only the keys a unit's
conditions name, so only those may split them.
"""

import random

import pytest

from repro.network import FunctionTranslator, Network
from repro.planner import (
    DeploymentCost,
    DeploymentState,
    ExpectedLatency,
    Planner,
    PlanningContext,
    PlanningError,
    PlanRequest,
    check_loads,
    plan_dp_chain,
)
from repro.services.mail import mail_translator
from repro.spec import (
    ANY,
    Behaviors,
    ComponentDef,
    Condition,
    InterfaceBinding,
    InterfaceDef,
    PropertyDef,
    ServiceSpec,
    StringDomain,
)

CLIENT, GATEWAY, SERVER = "sandiego-client1", "sandiego-gw", "newyork-ms"


@pytest.fixture()
def planner(mail_spec, fig5):
    planner = Planner(mail_spec, fig5.network, mail_translator(), algorithm="dp_chain")
    planner.preinstall("MailServer", fig5.server_node)
    return planner


#: a (required, implemented, path env) triple no mail plan checks
PROBE = ({"Confidentiality": True}, {"Confidentiality": ANY}, {"Confidentiality": False})


def _request():
    return PlanRequest("ClientInterface", CLIENT, context={"User": "Bob"})


def _warm(planner):
    """Plan once and memoize the probe; returns (the plan, the cached
    client->server route object, condition-2 evaluations so far)."""
    plan = planner.plan(_request())
    planner.ctx.properties_compatible(*PROBE)
    route = planner.network.path(CLIENT, SERVER)
    return plan, route, planner.ctx.cache_stats.compat_misses


def _dp_tables(planner):
    """The candidate tables and, per table, the pair rows built so far."""
    tables = planner.ctx.chain_tables()
    return dict(tables.candidates), {
        key: dict(table.rows) for key, table in tables.candidates.items()
    }


def _provider_rows(planner):
    """The installed-provider rows built so far, per (interface, scope)
    and open state, each with a copy of its entries."""
    return {
        key: {state: (row, dict(row)) for state, row in by_state.items()}
        for key, by_state in planner.ctx.chain_tables().installed.items()
    }


def test_commit_keeps_routes_and_verdicts_but_moves_the_plan_cache_epoch(planner):
    net, stats = planner.network, planner.ctx.cache_stats
    plan, route, misses = _warm(planner)
    version, epoch, structure = net.version, net.state_fingerprint(), net.structure_version
    candidates, rows = _dp_tables(planner)
    assert candidates and any(rows.values()) and planner.ctx.chain_tables().shapes
    provider_rows = _provider_rows(planner)
    assert any(entries for by_state in provider_rows.values() for _row, entries in by_state.values())

    planner.commit(plan)

    assert net.version > version and net.state_fingerprint() != epoch
    assert net.structure_version == structure
    assert net.path(CLIENT, SERVER) is route  # same cached PathInfo object
    planner.ctx.properties_compatible(*PROBE)
    assert stats.compat_misses == misses  # the verdict was kept: a hit
    # The same request again is nevertheless searched afresh (condition 3
    # must see the reservation), without flushing anything.
    planner.plan(_request())
    assert planner.plan_cache.stats.hits == 0
    assert stats.invalidations == 0
    # ... and that search rebuilt no table and no row: the very objects
    # the first plan built are still the ones in use.
    candidates_now, rows_now = _dp_tables(planner)
    for key, table in candidates.items():
        assert candidates_now[key] is table
        for state, row in rows[key].items():
            assert rows_now[key][state] is row
    # Installed-provider rows are kept the same way, entry for entry; the
    # providers the commit installed were checked into the same rows.
    provider_rows_now = _provider_rows(planner)
    grew = False
    for key, by_state in provider_rows.items():
        for state, (row, entries) in by_state.items():
            now, entries_now = provider_rows_now[key][state]
            assert now is row
            assert entries_now.items() >= entries.items()
            grew = grew or len(entries_now) > len(entries)
    assert grew
    # Condition 3 still sees the reservation the commit made.
    assert net.node(CLIENT).reserved_cpu > 0


def _crash_router(net):
    net.set_node_up(GATEWAY, False)


def _partition(net):
    net.set_link_up(CLIENT, GATEWAY, False)


def _unplug(net):
    net.remove_link("sandiego-client2", GATEWAY)


def _recredential(net):
    net.node(CLIENT).credentials["trust_level"] = 2
    net.touch()


def _assert_liveness_tables_flushed(planner):
    """What reads liveness went; the chain shapes, which read only the
    spec, stayed."""
    tables = planner.ctx.chain_tables()
    assert not tables.candidates  # rows go with their tables
    assert not tables.installed
    assert tables.shapes


@pytest.mark.parametrize("change", [_crash_router, _partition])
def test_liveness_flips_keep_route_derived_values(planner, change):
    net, ctx, stats = planner.network, planner.ctx, planner.ctx.cache_stats
    _plan, route, misses = _warm(planner)
    envs = {src: dict(row) for src, row in ctx._route_envs.items()}
    times = dict(ctx._route_times)
    assert any(envs.values()) and times
    structure, graph = net.structure_version, net.graph_version

    change(net)

    assert net.structure_version > structure and net.graph_version == graph
    ctx.properties_compatible(*PROBE)
    assert stats.invalidations == 1
    assert stats.compat_misses == misses  # the verdict was kept: a hit
    _assert_liveness_tables_flushed(planner)
    assert not ctx._link_rows and not ctx._round_trip_cache
    # Rebuilding answers from memory each pair whose route the flip left
    # alone: the rows built after the flip hold the very entries built
    # before it, and a kept value is replaced only for a pair whose hop
    # sequence changed.
    planner.plan(PlanRequest("ClientInterface", "newyork-client1", context={"User": "Bob"}))
    kept = {id(entry) for row in envs.values() for _hops, entry in row.values()}
    assert any(
        id(entry) in kept for row in ctx._link_rows.values() for entry in row.values()
    )
    for src, row in envs.items():
        for dst, before in row.items():
            now = ctx._route_envs[src][dst]
            assert now is before or now[0] != before[0]
    for key, before in times.items():
        now = ctx._route_times[key]
        assert now is before or now[0] != before[0]
    assert any(ctx._route_times[key] is before for key, before in times.items())


@pytest.mark.parametrize("change", [_unplug, _recredential])
def test_graph_changes_flush_everything(planner, change):
    net, ctx, stats = planner.network, planner.ctx, planner.ctx.cache_stats
    _plan, route, misses = _warm(planner)
    graph = net.graph_version

    change(net)

    assert net.graph_version > graph
    assert net.path(CLIENT, SERVER) is not route
    ctx.properties_compatible(*PROBE)
    assert stats.invalidations == 1
    assert stats.compat_misses == misses + 1  # the verdict was dropped, not kept
    _assert_liveness_tables_flushed(planner)
    assert not ctx._route_envs and not ctx._route_times
    assert not ctx._install_cache and not ctx._node_env_cache


def _secure_ny_sd(net):
    """Make the New York - San Diego link secure, so a flip that reroutes
    between those sites changes the path environment, not only the
    latency."""
    net.link("newyork-gw", "sandiego-gw").secure = True
    net.touch()


@pytest.mark.parametrize("world", [None, _secure_ny_sd])
@pytest.mark.parametrize("seed", range(8))
def test_plans_after_random_liveness_flips_match_a_fresh_planner(mail_spec, fig5, seed, world):
    """Random crash/restart and partition/heal sequences on the Figure 5
    testbed: after every flip, the long-lived planner — which keeps
    route-derived values, verdicts and its plan cache across flips —
    plans and scores exactly what a planner built afresh, keeping
    nothing, does."""
    net, rng = fig5.network, random.Random(seed)
    if world is not None:
        world(net)
    kept = Planner(mail_spec, net, mail_translator(), algorithm="dp_chain")
    server = kept.preinstall("MailServer", fig5.server_node)
    nodes = sorted(net.node_names())
    links = sorted((link.a, link.b) for link in net.links())
    requests = [
        PlanRequest("ClientInterface", client, context={"User": user})
        for client in ("sandiego-client1", "seattle-client2", "newyork-client1")
        for user in ("Alice", "Bob")
    ]

    def outcome(planner, request):
        try:
            plan = planner.plan(request)
        except PlanningError:
            return None
        return plan.describe(), plan.score

    planned = 0
    for _ in range(16):
        if rng.random() < 0.5:
            name = rng.choice(nodes)
            net.set_node_up(name, not net.node(name).up)
        else:
            a, b = rng.choice(links)
            net.set_link_up(a, b, not net.link(a, b).up)
        fresh = Planner(
            mail_spec, net, mail_translator(), algorithm="dp_chain",
            memoize=False, plan_cache=False,
        )
        fresh.state.add(server)
        for request in requests:
            expected = outcome(fresh, request)
            assert outcome(kept, request) == expected
            planned += expected is not None
    assert planned  # not every flip left every client cut off
    assert kept.ctx._route_envs  # no flip flushed them


def test_a_flip_that_reroutes_a_pair_recomputes_what_its_route_decides(mail_spec, fig5):
    """A kept environment or round trip is reused only while the pair
    still takes the hops it was computed on: cutting the secure New
    York - San Diego link sends the pair through Seattle, insecure and
    slower, and healing it brings both values back."""
    net = fig5.network
    _secure_ny_sd(net)
    ctx = PlanningContext(mail_spec, net, mail_translator())

    def values(context):
        return (
            context.link_env("sandiego-gw", "newyork-gw")[0],
            context.round_trip_ms("sandiego-gw", "newyork-gw", 100, 100),
        )

    direct = values(ctx)
    for up in (False, True):
        net.set_link_up("newyork-gw", "sandiego-gw", up)
        assert values(ctx) == values(PlanningContext(mail_spec, net, mail_translator()))
        assert (values(ctx) == direct) is up
    assert direct[0] == {"Confidentiality": True}


def test_dead_node_never_serves_a_stale_install_verdict(planner, mail_spec):
    net, ctx = planner.network, planner.ctx
    vms = mail_spec.unit("ViewMailServer")
    assert ctx.installable(vms, GATEWAY)
    planner.commit(planner.plan(_request()))  # a commit in between keeps the memo...
    assert ctx.installable(vms, GATEWAY)
    assert ctx.cache_stats.install_hits > 0
    net.set_node_up(GATEWAY, False)  # ...a death must not
    assert not ctx.installable(vms, GATEWAY)
    net.set_node_up(GATEWAY, True)
    assert ctx.installable(vms, GATEWAY)


def test_a_reservation_is_honoured_by_the_next_plan(planner, mail_spec, fig5):
    """Condition 3 and the exact score read the reservations, so no
    scored completion may be remembered from one call to the next."""
    net, stats = planner.network, planner.ctx.cache_stats
    first = planner.plan(_request())
    assert "ViewMailServer" in {p.unit for p in first.placements if p.node == CLIENT}
    candidates, _rows = _dp_tables(planner)

    # Leave the client node room for the MailClient but not for the
    # view beside it: the completion that just won now breaks condition 3.
    net.node(CLIENT).reserved_cpu = net.node(CLIENT).cpu_capacity - 12.0
    net.touch_reservations()

    second = planner.plan(_request())
    rate = mail_spec.unit("MailClient").behaviors.request_rate
    assert check_loads(planner.ctx, second, rate).ok
    assert not check_loads(planner.ctx, first, rate).ok
    assert "ViewMailServer" not in {p.unit for p in second.placements}
    assert stats.invalidations == 0 and _dp_tables(planner)[0] == candidates
    # A planner that never saw the first plan agrees.
    newcomer = Planner(mail_spec, net, mail_translator(), algorithm="dp_chain")
    newcomer.preinstall("MailServer", fig5.server_node)
    assert newcomer.plan(_request()).describe() == second.describe()


def _tiered_world(n_backs=8):
    """``Front`` at the client needs a ``Back``; a Back installs only for
    gold-tier requests, on any of ``n_backs`` servers that are farther
    (and so slower) the nearer they are to ``home``, where the code
    lives — more candidates than a chain scores exactly."""
    spec = ServiceSpec("tiered")
    spec.add_property(PropertyDef("Tier", StringDomain()))
    spec.add_interface(InterfaceDef("FrontInterface"))
    spec.add_interface(InterfaceDef("BackInterface"))
    spec.add_component(
        ComponentDef(
            "Front",
            implements=(InterfaceBinding("FrontInterface"),),
            requires=(InterfaceBinding("BackInterface"),),
            behaviors=Behaviors(request_rate=1.0),
        )
    )
    spec.add_component(
        ComponentDef(
            "Back",
            implements=(InterfaceBinding("BackInterface"),),
            conditions=(Condition("Tier", "gold"),),
        )
    )
    net = Network()
    net.add_node("client")
    net.add_node("home")
    for i in range(n_backs):
        net.add_node(f"s{i}")
        net.add_link("client", f"s{i}", latency_ms=1.0 + i)
        net.add_link(f"s{i}", "home", latency_ms=float(n_backs - i), bandwidth_mbps=10.0)
    return PlanningContext(spec.validate(), net, FunctionTranslator())


def _back_node(plan):
    return plan.placements[-1].node


def test_tables_are_not_shared_between_request_contexts_or_objectives():
    ctx = _tiered_world()
    gold = PlanRequest("FrontInterface", "client", context={"Tier": "gold"})
    free = PlanRequest("FrontInterface", "client", context={"Tier": "free"})
    by_cost = DeploymentCost(home_node="home")

    fastest = plan_dp_chain(ctx, gold, DeploymentState(), ExpectedLatency())
    assert _back_node(fastest) == "client"  # beside the Front
    # Same context object, other request context: gold's candidates must not serve it.
    assert plan_dp_chain(ctx, free, DeploymentState(), ExpectedLatency()) is None
    # Same context object, other objective: latency's weights and
    # placement costs would rank the cheapest server last, below the
    # completions a chain scores.
    cheapest = plan_dp_chain(ctx, gold, DeploymentState(), by_cost)
    assert _back_node(cheapest) == "home"
    reference = plan_dp_chain(_tiered_world(), gold, DeploymentState(), by_cost)
    assert cheapest.describe() == reference.describe()
    assert len(ctx.chain_tables().candidates) == 3 and ctx.cache_stats.invalidations == 0


def _vault_world(memoize=True):
    """``Front`` at the client needs a store.  The near ``Vault`` keeps
    Alice's mail only (a condition on ``User`` below the root); the far
    ``Store`` serves anyone.  ``Site`` is a node property both read."""
    spec = ServiceSpec("vault")
    spec.add_property(PropertyDef("User", StringDomain()))
    spec.add_property(PropertyDef("Site", StringDomain()))
    spec.add_interface(InterfaceDef("FrontInterface"))
    spec.add_interface(InterfaceDef("StoreInterface"))
    spec.add_component(
        ComponentDef(
            "Front",
            implements=(InterfaceBinding("FrontInterface"),),
            requires=(InterfaceBinding("StoreInterface"),),
            behaviors=Behaviors(request_rate=1.0),
        )
    )
    for name, site, users in (("Vault", "near", "Alice"), ("Store", "far", ANY)):
        spec.add_component(
            ComponentDef(
                name,
                implements=(InterfaceBinding("StoreInterface"),),
                conditions=(Condition("User", users), Condition("Site", site)),
            )
        )
    net = Network()
    for node in ("client", "near", "far"):
        net.add_node(node)
    net.add_link("client", "near", latency_ms=1.0)
    net.add_link("client", "far", latency_ms=20.0)
    translator = FunctionTranslator(lambda node: {"Site": node.name})
    return PlanningContext(spec.validate(), net, translator, memoize=memoize)


def _store_plan(ctx, context):
    plan = plan_dp_chain(ctx, PlanRequest("FrontInterface", "client", context=context))
    return [(p.unit, p.node) for p in plan.placements]


def test_a_context_key_a_unit_below_the_root_reads_still_separates_its_tables():
    ctx = _vault_world()
    alice = _store_plan(ctx, {"User": "Alice"})
    bob = _store_plan(ctx, {"User": "Bob"})
    assert alice == [("Front", "client"), ("Vault", "near")]
    assert bob == [("Front", "client"), ("Store", "far")]
    for context, plan in (({"User": "Alice"}, alice), ({"User": "Bob"}, bob)):
        assert _store_plan(_vault_world(memoize=False), context) == plan
    keys = {key[:3] for key in ctx.chain_tables().candidates}
    assert ("Vault", "StoreInterface", (("User", "Alice"),)) in keys
    assert ("Vault", "StoreInterface", (("User", "Bob"),)) in keys


def test_contexts_that_differ_only_in_an_unread_key_share_tables_and_verdicts():
    ctx = _vault_world()
    stats = ctx.cache_stats
    plans = [
        _store_plan(ctx, context)
        for context in (
            {"User": "Alice"},
            {"User": "Alice", "Mood": "calm"},
            {"User": "Alice", "Mood": ["unhashable", "and", "unread"]},
        )
    ]
    assert plans[0] == plans[1] == plans[2]
    tables = ctx.chain_tables().candidates
    assert len(tables) == 2  # one per store unit, however many contexts
    vault_verdicts = [key for key in ctx._install_cache if key[:2] == ("Vault", "near")]
    assert vault_verdicts == [("Vault", "near", (("User", "Alice"),))]
    assert stats.uncacheable == 0
    # An unhashable value the conditions *do* read steps aside, and is
    # still judged right.
    misses = stats.install_misses
    assert _store_plan(ctx, {"User": ["Alice"]}) == [("Front", "client"), ("Store", "far")]
    assert stats.uncacheable > 0 and stats.install_misses == misses
    assert len(tables) == 2


def test_a_liveness_flip_flushes_candidate_tables_but_keeps_chain_shapes(mail_spec, fig5):
    net = fig5.network
    fast = Planner(mail_spec, net, mail_translator(), algorithm="dp_chain", plan_cache=False)
    slow = Planner(
        mail_spec, net, mail_translator(), algorithm="dp_chain", plan_cache=False, memoize=False
    )
    for planner in (fast, slow):
        planner.preinstall("MailServer", fig5.server_node)
    stats = fast.ctx.cache_stats

    def same_plans():
        for user in ("Alice", "Mallory"):
            request = PlanRequest("ClientInterface", CLIENT, context={"User": user})
            assert fast.plan(request).describe() == slow.plan(request).describe()

    same_plans()
    tables = fast.ctx.chain_tables()
    shapes = dict(tables.shapes)
    assert shapes and tables.candidates
    for up in (False, True):
        net.set_node_up("seattle-gw", up)
        invalidations = stats.invalidations
        tables = fast.ctx.chain_tables()
        assert stats.invalidations == invalidations + 1
        assert not tables.candidates and not tables.installed
        assert tables.shapes.keys() == shapes.keys()
        assert all(tables.shapes[key] is shape for key, shape in shapes.items())
        same_plans()
