"""Hosting several services on one Smock runtime.

"The framework itself ensures that the generic server does not become a
bottleneck by spreading out requests for different services among
multiple instances" (§3.2): each service gets its own generic server,
planner, coherence directory, and instance registry, sharing the
simulator, network, wrappers, and lookup namespace.
"""

import pytest

from repro.experiments.topology_fig5 import build_fig5_network
from repro.services.mail import (
    DEFAULT_USERS,
    MAIL_COMPONENT_CLASSES,
    build_mail_spec,
    mail_translator,
)
from repro.services.video import (
    VIDEO_COMPONENT_CLASSES,
    build_video_spec,
    video_translator,
)
from repro.planner import DeploymentPlan, Placement
from repro.smock import DeploymentError, SmockRuntime
from repro.coherence import AttributeConflictMap


@pytest.fixture()
def runtime():
    """Mail (primary) + video on the Figure-5 network."""
    topo = build_fig5_network(clients_per_site=2)
    # Mark New York as the video source site too.
    topo.network.node(topo.server_node).credentials["source_site"] = True
    for node in topo.network.nodes():
        node.credentials.setdefault("source_site", False)
        node.credentials.setdefault("popularity", 3)

    rt = SmockRuntime(topo.network, server_node=topo.server_node)
    rt.service_state["mail_users"] = DEFAULT_USERS
    rt.add_service(
        "mail",
        build_mail_spec(),
        mail_translator(),
        default_interface="ClientInterface",
        component_classes=MAIL_COMPONENT_CLASSES,
        algorithm="dp_chain",
        conflict_map=AttributeConflictMap("sensitivity", "TrustLevel"),
    )
    rt.preinstall("MailServer", topo.server_node)

    rt.add_service(
        "video",
        build_video_spec(),
        video_translator(),
        default_interface="ViewerInterface",
        component_classes=VIDEO_COMPONENT_CLASSES,
        algorithm="exhaustive",
        server_node=topo.gateways["newyork"],  # its own generic-server host
    )
    rt.preinstall("VideoSource", topo.server_node, service="video")
    rt._fig5 = topo
    return rt


def test_both_services_discoverable(runtime):
    names = {r.name for r in runtime.lookup.find({})}
    assert names == {"mail", "video"}


def test_services_have_independent_servers_and_planners(runtime):
    mail = runtime.bundle_for("mail")
    video = runtime.bundle_for("video")
    assert mail.server is not video.server
    assert mail.planner is not video.planner
    assert mail.coherence is not video.coherence
    assert mail.server.host_node == "newyork-ms"
    assert video.server.host_node == "newyork-gw"


def test_clients_bind_to_each_service(runtime):
    mail_proxy = runtime.run(
        runtime.client_connect("sandiego-client1", {"User": "Bob"}, service="mail")
    )
    video_proxy = runtime.run(
        runtime.client_connect("sandiego-client2", {}, service="video")
    )
    assert mail_proxy.root.unit.name == "MailClient"
    assert video_proxy.root.unit.name == "VideoClient"

    send = runtime.run(mail_proxy.request(
        "send_mail", {"recipient": "Alice", "sensitivity": 2, "body": "hi"}))
    assert send.ok
    play = runtime.run(video_proxy.request("play", {"content": "m", "seq": 0}))
    assert play.ok


def test_instance_registries_are_isolated(runtime):
    runtime.run(runtime.client_connect("sandiego-client1", {"User": "Bob"}, service="mail"))
    runtime.run(runtime.client_connect("sandiego-client2", {}, service="video"))
    mail_units = {k[0] for k in runtime.bundle_for("mail").instances}
    video_units = {k[0] for k in runtime.bundle_for("video").instances}
    assert "MailClient" in mail_units and "VideoClient" not in mail_units
    assert "VideoClient" in video_units and "MailClient" not in video_units
    # instance_of routes per service
    assert runtime.instance_of("VideoSource", service="video")
    with pytest.raises(KeyError):
        runtime.instance_of("VideoSource")  # not in the primary (mail) bundle


def test_duplicate_service_name_rejected(runtime):
    with pytest.raises(DeploymentError):
        runtime.add_service(
            "mail", build_video_spec(), video_translator(), "ViewerInterface"
        )


def test_coherence_directories_do_not_cross_talk(runtime):
    runtime.run(runtime.client_connect("sandiego-client1", {"User": "Bob"}, service="mail"))
    mail_coherence = runtime.bundle_for("mail").coherence
    video_coherence = runtime.bundle_for("video").coherence
    assert mail_coherence.replicas_of("MailServer")
    assert not video_coherence.replicas_of("MailServer")


def test_first_service_added_is_the_primary(runtime):
    mail = runtime.bundle_for("mail")
    assert runtime.primary is mail
    assert [b.name for b in runtime.bundles()] == ["mail", "video"]
    assert runtime.planner is mail.planner
    assert runtime.coherence is mail.coherence
    assert runtime.generic_server is mail.server
    assert runtime.instances is mail.instances
    assert runtime.spec is mail.spec


def test_second_service_bootstraps_through_service_keyword(runtime):
    video = runtime.bundle_for("video")
    # the fixture's preinstall(service="video") landed in video's
    # registry and coherence directory alone
    source = runtime.instance_of("VideoSource", "newyork-ms", service="video")
    assert source.bundle is video
    assert video.coherence._primaries["VideoSource"] is source
    assert "VideoSource" not in runtime.primary.coherence._primaries
    assert not any(k[0] == "VideoSource" for k in runtime.primary.instances)
    plan = DeploymentPlan(
        placements=[Placement(unit="VideoClient", node="sandiego-client2")],
        linkages=[],
        root=0,
        client_node="sandiego-client2",
    )
    record = runtime.deploy_manual(plan, service="video")
    client = runtime.instance_of("VideoClient", "sandiego-client2", service="video")
    assert record.root_instance is client
    assert client.bundle is video
    assert client.node_name == "sandiego-client2"
    with pytest.raises(KeyError):
        runtime.instance_of("VideoClient")  # the primary (mail) has none


def test_runtime_without_a_service_refuses_primary_and_connect():
    topo = build_fig5_network(clients_per_site=1)
    bare = SmockRuntime(topo.network)
    assert bare.bundles() == []
    with pytest.raises(DeploymentError, match="no service registered"):
        bare.primary
    with pytest.raises(DeploymentError, match="no service registered"):
        bare.run(bare.client_connect(topo.clients["newyork"][0], {"User": "Bob"}))


def test_autonomic_runtime_takes_its_first_service_after_construction():
    # The autonomic loop builds its replanner in the constructor, before
    # any service exists; it must plan with the service added later.
    topo = build_fig5_network(clients_per_site=1)
    runtime = SmockRuntime(topo.network, server_node=topo.server_node, autonomic=True)
    assert runtime.replanner is not None
    runtime.service_state["mail_users"] = DEFAULT_USERS
    mail = runtime.add_service(
        "mail", build_mail_spec(), mail_translator(), "ClientInterface",
        component_classes=MAIL_COMPONENT_CLASSES, algorithm="dp_chain",
    )
    runtime.preinstall("MailServer", topo.server_node)
    proxy = runtime.run(runtime.client_connect("sandiego-client1", {"User": "Bob"}))
    assert proxy.root.unit.name == "MailClient"

    replanner = runtime.replanner
    replanner.track_access(proxy, runtime.generic_server.accesses[-1])
    searched = []
    run_search = mail.planner.run_search
    mail.planner.run_search = lambda *a, **kw: searched.append(1) or run_search(*a, **kw)
    event = runtime.run(replanner.replan_all())
    assert searched == [1]
    assert not event.failures


def test_replanning_plans_each_binding_with_its_own_service(runtime):
    replanner = runtime.enable_self_healing()
    mail_proxy = runtime.run(
        runtime.client_connect("sandiego-client1", {"User": "Bob"}, service="mail")
    )
    replanner.track_access(mail_proxy, runtime.bundle_for("mail").server.accesses[-1])
    video = runtime.bundle_for("video")
    video_proxy = runtime.run(runtime.client_connect("sandiego-client2", {}, service="video"))
    replanner.track_access(video_proxy, video.server.accesses[-1])
    assert [b.bundle.name for b in replanner.bindings] == ["mail", "video"]

    searched = []
    run_search = video.planner.run_search
    video.planner.run_search = lambda *a, **kw: searched.append(1) or run_search(*a, **kw)
    event = runtime.run(replanner.replan_all())
    assert event.failures == []
    assert searched == [1]
    client = runtime.instance_of("VideoClient", "sandiego-client2", service="video")
    assert video_proxy.root is client
    play = runtime.run(video_proxy.request("play", {"content": "m", "seq": 0}))
    assert play.ok
