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
from repro.smock import SmockRuntime
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

    rt = SmockRuntime(
        build_mail_spec(),
        topo.network,
        mail_translator(),
        algorithm="dp_chain",
        server_node=topo.server_node,
        conflict_map=AttributeConflictMap("sensitivity", "TrustLevel"),
    )
    rt.service_state["mail_users"] = DEFAULT_USERS
    for name, cls in MAIL_COMPONENT_CLASSES.items():
        rt.register_component(name, cls)
    rt.register_service("mail", default_interface="ClientInterface")
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
    from repro.smock import DeploymentError

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
