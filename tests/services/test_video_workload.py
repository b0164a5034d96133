"""Video streaming workload: achieved QoS on real deployments."""

import pytest

from repro.network import Network
from repro.services.video import (
    CLIENT_MIN_FPS,
    StreamConfig,
    VIDEO_COMPONENT_CLASSES,
    build_video_spec,
    stream_session,
    video_translator,
)
from repro.smock import SmockRuntime


def build_runtime(wan_mbps: float) -> SmockRuntime:
    net = Network()
    net.add_node("studio", cpu_capacity=8000,
                 credentials={"source_site": True, "popularity": 1})
    net.add_node("edge", cpu_capacity=2000,
                 credentials={"source_site": False, "popularity": 4})
    net.add_node("home", cpu_capacity=2000,
                 credentials={"source_site": False, "popularity": 4})
    net.add_link("studio", "edge", latency_ms=20.0, bandwidth_mbps=wan_mbps)
    net.add_link("edge", "home", latency_ms=1.0, bandwidth_mbps=100.0)
    rt = SmockRuntime(
        build_video_spec(), net, video_translator(),
        server_node="studio", algorithm="exhaustive",
    )
    for name, cls in VIDEO_COMPONENT_CLASSES.items():
        rt.register_component(name, cls)
    rt.register_service("video", default_interface="ViewerInterface")
    rt.preinstall("VideoSource", "studio")
    return rt


@pytest.fixture(scope="module")
def session_result():
    rt = build_runtime(4.0)
    proxy = rt.run(rt.client_connect("home"))
    result = rt.run(stream_session(proxy, StreamConfig(n_frames=60, seed=3)))
    return rt, result


def test_stream_completes_without_errors(session_result):
    _rt, result = session_result
    assert not result.errors
    assert result.frame_latency.count == 60


def test_achieved_fps_meets_client_floor(session_result):
    """The planner promised >= 24 fps; the measured stream delivers it."""
    _rt, result = session_result
    assert result.achieved_fps >= CLIENT_MIN_FPS


def test_jitter_reflects_cache_hits(session_result):
    rt, result = session_result
    # With replays hitting caches, p50 and p99 differ (hit vs miss).
    assert result.jitter_ms >= 0.0
    assert result.frame_latency.percentile(50) > 0


def test_stream_records_per_op_latency_histograms():
    """Video gets the same per-op windowed telemetry as mail: proxy-level
    request latency and workload-level op latency, labeled by op."""
    from repro.obs import Observability, use_obs

    obs = Observability(metrics=True)
    with use_obs(obs):
        rt = build_runtime(4.0)
        proxy = rt.run(rt.client_connect("home"))
        result = rt.run(stream_session(proxy, StreamConfig(n_frames=40, seed=3)))
    assert not result.errors
    hists = obs.metrics.snapshot()["histograms"]
    request = hists["smock.request_sim_ms{op=play}"]
    workload = hists["workload.op_sim_ms{op=play,service=video}"]
    assert request["count"] == 40
    assert workload["count"] == 40
    assert "p999" in request and "p999" in workload
    assert workload["p50"] >= request["p50"] > 0.0


def test_replays_are_cache_hits_when_cache_deployed():
    rt = build_runtime(4.0)
    proxy = rt.run(rt.client_connect("home"))
    units = {k[0] for k in rt.instances}
    rt.run(stream_session(proxy, StreamConfig(n_frames=80, replay_fraction=0.3, seed=9)))
    if "ViewVideoSource" in units:
        cache = rt.instance_of("ViewVideoSource")
        assert cache.hits > 0
