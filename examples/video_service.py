#!/usr/bin/env python3
"""QoS-driven partitioning: the video streaming service.

Shows the paper's claim that property-modification rules generalize
beyond security (§3.3, "e.g. QoS properties such as delivered video
frame rate"): the same planner that placed Encryptor/Decryptor pairs for
confidentiality places a Packager (transcoder) for frame rate.

Three WAN capacities are planned:

- fast WAN: raw frames fit, the Packager may sit anywhere;
- slow WAN: raw frames would be throttled below the client's 24 fps,
  forcing the Packager to the studio side;
- hopeless WAN: even compressed frames don't fit — no valid deployment.

Run with::

    python examples/video_service.py
"""

from repro.network import Network
from repro.planner import Planner, PlanningError, PlanRequest
from repro.services.video import (
    CLIENT_MIN_FPS,
    COMPRESSED_MBPS_PER_FPS,
    RAW_MBPS_PER_FPS,
    VIDEO_COMPONENT_CLASSES,
    build_video_spec,
    video_translator,
)
from repro.smock import SmockRuntime


def build_net(wan_mbps: float) -> Network:
    net = Network()
    net.add_node("studio", cpu_capacity=4000,
                 credentials={"source_site": True, "popularity": 1})
    net.add_node("edge", cpu_capacity=1000,
                 credentials={"source_site": False, "popularity": 4})
    net.add_node("home", cpu_capacity=1000,
                 credentials={"source_site": False, "popularity": 4})
    net.add_link("studio", "edge", latency_ms=50.0, bandwidth_mbps=wan_mbps)
    net.add_link("edge", "home", latency_ms=1.0, bandwidth_mbps=100.0)
    return net


def plan_at(wan_mbps: float) -> None:
    raw_fps = wan_mbps / RAW_MBPS_PER_FPS
    comp_fps = wan_mbps / COMPRESSED_MBPS_PER_FPS
    print(f"\nWAN at {wan_mbps:g} Mb/s — sustains {raw_fps:.0f} fps raw, "
          f"{comp_fps:.0f} fps compressed (client needs {CLIENT_MIN_FPS:g}):")
    spec = build_video_spec()
    planner = Planner(spec, build_net(wan_mbps), video_translator(),
                      algorithm="exhaustive")
    planner.preinstall("VideoSource", "studio")
    try:
        plan = planner.plan(PlanRequest("ViewerInterface", "home"))
    except PlanningError:
        print("  -> NO valid deployment (the planner rejects, rather than "
              "delivering an under-spec stream)")
        return
    print("  -> " + " -> ".join(p.label() for p in plan.chain_from_root()))


def stream_a_few_frames() -> None:
    print("\nRunning the slow-WAN deployment end to end:")
    spec = build_video_spec()
    net = build_net(4.0)
    rt = SmockRuntime(net, server_node="studio")
    rt.add_service("video", spec, video_translator(), "ViewerInterface",
                   component_classes=VIDEO_COMPONENT_CLASSES,
                   algorithm="exhaustive")
    rt.preinstall("VideoSource", "studio")
    proxy = rt.run(rt.client_connect("home"))

    def play(seq):
        resp = yield from proxy.request("play", {"content": "trailer", "seq": seq})
        return resp

    for seq in range(3):
        resp = rt.run(play(seq))
        assert resp.ok
    print(f"  played 3 frames; mean frame latency "
          f"{proxy.latency.mean:.1f} simulated ms")
    packager = rt.instance_of("Packager")
    print(f"  Packager ran at {packager.node_name} and packaged "
          f"{packager.frames_packaged} frames")


def main() -> None:
    for wan in (40.0, 4.0, 0.5):
        plan_at(wan)
    stream_a_few_frames()


if __name__ == "__main__":
    main()
