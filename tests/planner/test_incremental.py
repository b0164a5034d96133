"""Tests for incremental replanning: survivors, grafting, fallback.

The survivor analysis re-validates a previous plan bottom-up under the
*current* network (conditions 1 and 2); seeding a new search with the
survivors lets a replan patch the broken subtree instead of re-deriving
the whole deployment.
"""

from repro.experiments.topology_fig5 import build_fig5_network
from repro.obs import Observability
from repro.planner import (
    ALGORITHMS,
    DeploymentState,
    Planner,
    PlanningContext,
    surviving_placements,
)
from repro.planner.exhaustive import plan_exhaustive
from repro.planner.objectives import ExpectedLatency
from repro.planner.plan import PlanRequest
from repro.services.mail import build_mail_spec, mail_translator


def make_world():
    spec = build_mail_spec()
    topo = build_fig5_network(clients_per_site=2)
    ctx = PlanningContext(spec, topo.network, mail_translator())
    state = DeploymentState()
    state.add(ctx.instantiate(spec.unit("MailServer"), topo.server_node, {}))
    return ctx, state


def make_planner():
    """A planner with the primary MailServer preinstalled and metrics on."""
    topo = build_fig5_network(clients_per_site=2)
    planner = Planner(
        build_mail_spec(), topo.network, mail_translator(),
        obs=Observability(tracing=False),
    )
    planner.preinstall("MailServer", topo.server_node)
    return planner


def incremental_counters(planner):
    counters = planner.obs.metrics.snapshot()["counters"]
    return {
        name.rsplit(".", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("planner.incremental.")
    }


def bob():
    return PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})


def carol():
    return PlanRequest("ClientInterface", "seattle-client1", context={"User": "Carol"})


def linkage_set(plan):
    return {
        (plan.placements[l.client].key, plan.placements[l.server].key, l.interface)
        for l in plan.linkages
    }


def test_everything_survives_when_nothing_changed():
    ctx, state = make_world()
    req = bob()
    plan = plan_exhaustive(ctx, req, state, ExpectedLatency())
    survivors = surviving_placements(ctx, plan, req.context)
    assert {p.key for p in survivors} == {p.key for p in plan.placements}


def test_dead_host_kills_its_whole_dependent_chain():
    ctx, state = make_world()
    req = bob()
    plan = plan_exhaustive(ctx, req, state, ExpectedLatency())
    vms_node = next(p.node for p in plan.placements if p.unit == "ViewMailServer")
    ctx.network.set_node_up(vms_node, False)
    survivors = surviving_placements(ctx, plan, req.context)
    names = {p.unit for p in survivors}
    # Nothing on the dead host survives (condition 1)...
    assert not any(p.node == vms_node for p in survivors)
    # ...and neither does the root: its provider chain is broken, even
    # though the root's own node is perfectly healthy.
    assert "MailClient" not in names
    # The primary, on an unaffected host with no broken linkage, does.
    assert "MailServer" in names


def test_rerouting_invalidates_condition_two_between_healthy_hosts():
    """A dead *router* can strip Confidentiality from a linkage whose
    endpoints are both alive: routing falls back to an insecure path and
    the path-environment modification rules no longer deliver the
    client's required properties (paper §3.3's condition 2)."""
    ctx, state = make_world()
    net = ctx.network
    req = PlanRequest(
        "ClientInterface", "newyork-client1", context={"User": "Alice"}
    )
    plan = plan_exhaustive(ctx, req, state, ExpectedLatency())
    assert [p.unit for p in plan.placements] == ["MailClient", "MailServer"]

    # An insecure bypass exists but routing prefers the secure 0 ms path
    # through the gateway: everything still survives.
    net.add_link(
        "newyork-client1", "newyork-ms",
        latency_ms=50.0, bandwidth_mbps=10.0, secure=False,
    )
    survivors = surviving_placements(ctx, plan, req.context)
    assert len(survivors) == len(plan.placements)

    # Kill the gateway: both endpoints remain up and *reachable* — but
    # only via the insecure bypass, so the plaintext linkage dies.
    net.set_node_up("newyork-gw", False)
    survivors = surviving_placements(ctx, plan, req.context)
    assert [p.unit for p in survivors] == ["MailServer"]


def test_incremental_plan_equals_previous_when_world_unchanged():
    """Seeding from a fully surviving plan must reproduce it exactly —
    including the downstream wiring of seeded placements, which the
    search treats as already wired (the graft step restores it)."""
    planner = make_planner()
    req = carol()
    previous = plan_exhaustive(
        planner.ctx, req, planner.state, ExpectedLatency()
    )
    assert len(previous.placements) == 5  # seattle chain incl. crypto pair

    plan = planner.replan_incremental(req, previous)
    # Everything except the preinstalled MailServer was seeded.
    assert incremental_counters(planner) == {
        "rounds": 1, "seeded_placements": len(previous.placements) - 1,
    }
    assert {p.key for p in plan.placements} == {p.key for p in previous.placements}
    assert linkage_set(plan) == linkage_set(previous)


def test_installed_keys_filter_restricts_seeding():
    planner = make_planner()
    req = carol()
    previous = plan_exhaustive(
        planner.ctx, req, planner.state, ExpectedLatency()
    )
    # Pretend the runtime only has the primary installed: no survivor
    # may be offered for reuse, so the search runs unseeded.
    installed = {p.key for p in planner.state.placements()}
    plan = planner.replan_incremental(req, previous, installed_keys=installed)
    assert incremental_counters(planner) == {}
    assert {p.key for p in plan.placements} == {p.key for p in previous.placements}


def test_seeded_search_failure_falls_back_to_full_search(monkeypatch):
    planner = make_planner()
    req = bob()
    previous = plan_exhaustive(
        planner.ctx, req, planner.state, ExpectedLatency()
    )

    calls = []

    def flaky(ctx_, req_, state_, obj_):
        calls.append(len(state_._placements))
        if len(calls) == 1:
            return None  # the seeded attempt comes up empty
        return plan_exhaustive(ctx_, req_, state_, obj_)

    monkeypatch.setitem(ALGORITHMS, "flaky", flaky)
    plan = planner.replan_incremental(req, previous, algorithm="flaky")
    assert incremental_counters(planner) == {"fallbacks": 1}
    assert len(calls) == 2
    assert calls[0] > calls[1]  # first call saw the seeded state
    assert plan is not None
    assert {p.key for p in plan.placements} == {p.key for p in previous.placements}
