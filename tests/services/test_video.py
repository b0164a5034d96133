"""Tests for the QoS-sensitive video service."""

import pytest

from repro.network import Network
from repro.planner import Planner, PlanningError, PlanRequest
from repro.services.video import (
    CLIENT_MIN_FPS,
    RAW_MBPS_PER_FPS,
    VIDEO_COMPONENT_CLASSES,
    build_video_spec,
    video_translator,
)
from repro.smock import SmockRuntime


def build_net(wan_mbps: float):
    net = Network()
    net.add_node("studio", cpu_capacity=4000, credentials={"source_site": True, "popularity": 1})
    net.add_node("edge", cpu_capacity=1000, credentials={"source_site": False, "popularity": 4})
    net.add_node("home", cpu_capacity=1000, credentials={"source_site": False, "popularity": 4})
    net.add_link("studio", "edge", latency_ms=50, bandwidth_mbps=wan_mbps, secure=True)
    net.add_link("edge", "home", latency_ms=1, bandwidth_mbps=100.0, secure=True)
    return net


def plan_for(wan_mbps: float):
    spec = build_video_spec()
    net = build_net(wan_mbps)
    planner = Planner(spec, net, video_translator(), algorithm="exhaustive")
    planner.preinstall("VideoSource", "studio")
    return planner.plan(PlanRequest("ViewerInterface", "home"))


def test_spec_validates():
    spec = build_video_spec()
    assert spec.name == "video"
    assert spec.unit("ViewVideoSource").represents == "VideoSource"


def test_frame_rate_rule_throttles():
    spec = build_video_spec()
    assert spec.rules.apply("FrameRate", 60.0, 10.0) == 10.0
    assert spec.rules.apply("FrameRate", 60.0, 100.0) == 60.0
    assert spec.rules.apply("FrameRate", 60.0, None) is None


def test_slow_wan_forces_packager_to_source_side():
    # 4 Mb/s raw capacity = 10 fps < 24 required: raw frames cannot
    # cross the WAN, so the Packager must sit at the studio.
    plan = plan_for(4.0)
    by_unit = {p.unit: p for p in plan.placements}
    assert by_unit["Packager"].node == "studio"


def test_fast_wan_allows_any_packager_placement():
    # 40 Mb/s sustains 100 fps raw: both placements valid, planner picks
    # by latency; the plan must still contain a full valid chain.
    plan = plan_for(40.0)
    units = [p.unit for p in plan.chain_from_root()]
    assert units[0] == "VideoClient"
    assert "Packager" in units
    assert units[-1] == "VideoSource"


def test_hopeless_wan_has_no_plan():
    # 0.5 Mb/s sustains 12.5 fps even compressed: nothing satisfies 24.
    spec = build_video_spec()
    net = build_net(0.5)
    planner = Planner(spec, net, video_translator(), algorithm="exhaustive")
    planner.preinstall("VideoSource", "studio")
    with pytest.raises(PlanningError):
        planner.plan(PlanRequest("ViewerInterface", "home"))


def test_source_condition_pins_master_to_source_site():
    spec = build_video_spec()
    net = build_net(4.0)
    planner = Planner(spec, net, video_translator())
    with pytest.raises(PlanningError):
        planner.preinstall("VideoSource", "home")


def test_end_to_end_playback():
    spec = build_video_spec()
    net = build_net(4.0)
    rt = SmockRuntime(net, server_node="studio")
    rt.add_service(
        "video", spec, video_translator(), "ViewerInterface",
        component_classes=VIDEO_COMPONENT_CLASSES, algorithm="exhaustive",
    )
    rt.preinstall("VideoSource", "studio")

    proxy = rt.run(rt.client_connect("home", {}))
    assert proxy.root.unit.name == "VideoClient"

    def play(seq):
        resp = yield from proxy.request("play", {"content": "movie", "seq": seq})
        return resp

    resp = rt.run(play(0))
    assert resp.ok
    assert resp.payload["compressed"] is False  # decoded at the client
    assert resp.payload["frame"]  # non-empty decoded frame
    source = rt.instance_of("VideoSource")
    assert source.frames_served == 1


def test_cache_view_absorbs_repeat_requests():
    spec = build_video_spec()
    net = build_net(4.0)
    rt = SmockRuntime(net, server_node="studio")
    rt.add_service(
        "video", spec, video_translator(), "ViewerInterface",
        component_classes=VIDEO_COMPONENT_CLASSES, algorithm="exhaustive",
    )
    rt.preinstall("VideoSource", "studio")
    proxy = rt.run(rt.client_connect("home", {}))

    units = {k[0] for k in rt.instances}
    if "ViewVideoSource" not in units:
        pytest.skip("planner found no cache placement on this topology")
    cache = rt.instance_of("ViewVideoSource")

    def play(seq):
        resp = yield from proxy.request("play", {"content": "movie", "seq": seq})
        return resp

    rt.run(play(1))
    rt.run(play(1))
    assert cache.hits >= 1


def test_retiring_a_cache_view_flushes_nothing():
    """A ``ViewVideoSource`` is a registered replica that buffers nothing:
    the replan round that retires it goes through the replica flush and
    finds nothing to write back."""
    from repro.experiments.topology_fig5 import build_fig5_network

    topo = build_fig5_network(clients_per_site=2)
    for node in topo.network.nodes():
        node.credentials.setdefault("source_site", node.name == topo.server_node)
        node.credentials.setdefault("popularity", 3)
    rt = SmockRuntime(topo.network, server_node=topo.server_node)
    rt.add_service(
        "video", build_video_spec(), video_translator(), "ViewerInterface",
        component_classes=VIDEO_COMPONENT_CLASSES, algorithm="exhaustive",
    )
    rt.preinstall("VideoSource", topo.server_node)
    rt.run(rt.client_connect("sandiego-client1", {}))
    cache = rt.instance_of("ViewVideoSource")
    assert cache.replica_id is not None

    flushed = []
    flush = rt.primary.flush

    def spy(instance):
        done = yield from flush(instance)
        flushed.append((instance, done))
        return done

    rt.primary.flush = spy
    event = rt.run(rt.enable_self_healing().replan_all())  # no binding tracked
    assert cache.label in event.retired and cache.replica_id is None
    assert (cache, True) in flushed
    assert rt.coherence.stats.syncs == 0 and rt.coherence.stats.local_updates == 0
