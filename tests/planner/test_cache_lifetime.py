"""What survives a commit, and what flushes the planner's tables.

A committed plan only *reserves capacity*: routes, path environments,
install verdicts and condition-2 verdicts are functions of the graph,
liveness, link attributes and credentials, so they must survive it
(``Network.touch_reservations``) — while the plan-cache epoch
(``version`` / ``state_fingerprint``) must still move, because
condition 3 reads the reservations.  Every other kind of change must
flush all of them, exactly as before.
"""

import pytest

from repro.network import NetworkError
from repro.planner import Planner, PlanRequest
from repro.services.mail import mail_translator
from repro.spec import ANY

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


def test_commit_keeps_routes_and_verdicts_but_moves_the_plan_cache_epoch(planner):
    net, stats = planner.network, planner.ctx.cache_stats
    plan, route, misses = _warm(planner)
    version, epoch, structure = net.version, net.state_fingerprint(), net.structure_version

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


@pytest.mark.parametrize("change", [_crash_router, _partition, _unplug, _recredential])
def test_structure_changes_flush_routes_and_verdicts(planner, change):
    net, stats = planner.network, planner.ctx.cache_stats
    _plan, route, misses = _warm(planner)
    structure = net.structure_version

    change(net)

    assert net.structure_version > structure
    try:
        assert net.path(CLIENT, SERVER) is not route
    except NetworkError:
        pass  # the change cut the client off: no route at all
    planner.ctx.properties_compatible(*PROBE)
    assert stats.invalidations == 1
    assert stats.compat_misses == misses + 1  # the verdict was dropped, not kept


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
