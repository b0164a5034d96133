#!/usr/bin/env python3
"""Hosting two partitionable services on one substrate.

The paper notes the framework "ensures that the generic server does not
become a bottleneck by spreading out requests for different services
among multiple instances" (§3.2).  Here the security-sensitive mail
service and the QoS-sensitive video service share the Figure-5 network:
each has its own generic server, planner, and coherence directory, and
each client request is partitioned by the policies *its* service
declares — security for mail, frame rate for video.

Run with::

    python examples/multi_service.py
"""

from repro.coherence import AttributeConflictMap
from repro.experiments import build_fig5_network
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


def main() -> None:
    topo = build_fig5_network(clients_per_site=2)
    topo.network.node(topo.server_node).credentials["source_site"] = True
    for node in topo.network.nodes():
        node.credentials.setdefault("source_site", False)
        node.credentials.setdefault("popularity", 3)

    runtime = SmockRuntime(topo.network, server_node=topo.server_node)
    runtime.service_state["mail_users"] = DEFAULT_USERS
    runtime.add_service(
        "mail",
        build_mail_spec(),
        mail_translator(),
        default_interface="ClientInterface",
        component_classes=MAIL_COMPONENT_CLASSES,
        algorithm="dp_chain",
        conflict_map=AttributeConflictMap("sensitivity", "TrustLevel"),
    )
    runtime.preinstall("MailServer", topo.server_node)

    runtime.add_service(
        "video",
        build_video_spec(),
        video_translator(),
        default_interface="ViewerInterface",
        component_classes=VIDEO_COMPONENT_CLASSES,
        algorithm="exhaustive",
        server_node=topo.gateways["newyork"],
    )
    runtime.preinstall("VideoSource", topo.server_node, service="video")

    print("registered services:", [r.name for r in runtime.lookup.find({})])

    mail_proxy = runtime.run(
        runtime.client_connect("sandiego-client1", {"User": "Bob"}, service="mail")
    )
    video_proxy = runtime.run(
        runtime.client_connect("sandiego-client2", {}, service="video")
    )

    print("\nmail deployment (partitioned for confidentiality + trust):")
    for key in runtime.bundle_for("mail").instances:
        print(f"  {key[0]}@{key[1]}")
    print("\nvideo deployment (partitioned for frame rate):")
    for key in runtime.bundle_for("video").instances:
        print(f"  {key[0]}@{key[1]}")

    send = runtime.run(mail_proxy.request(
        "send_mail", {"recipient": "Alice", "sensitivity": 2, "body": "hello"}))
    play = runtime.run(video_proxy.request("play", {"content": "movie", "seq": 0}))
    print(f"\nmail send ok={send.ok}; video frame ok={play.ok} "
          f"(decoded {len(play.payload['frame'])} bytes)")
    print(f"generic servers: mail@{runtime.bundle_for('mail').server.host_node}, "
          f"video@{runtime.bundle_for('video').server.host_node}")


if __name__ == "__main__":
    main()
