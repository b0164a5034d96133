"""Time series rings, windowed log-bucket histograms, telemetry sampler."""

import pytest

from repro.obs import MetricsRegistry, TelemetrySampler, TimeSeries, WindowedHistogram
from repro.obs.metrics import Histogram
from repro.obs.timeseries import SERIES_CAPACITY, WINDOW_CAPACITY
from repro.sim import Simulator
from repro.sim.resources import Resource


# -- TimeSeries --------------------------------------------------------------
def test_timeseries_ring_capacity():
    ts = TimeSeries("x")
    n = SERIES_CAPACITY + 2
    for i in range(n):
        ts.append(float(i), float(i * 10))
    assert len(ts) == SERIES_CAPACITY
    assert ts.capacity == SERIES_CAPACITY
    assert ts.samples()[:2] == [(2.0, 20.0), (3.0, 30.0)]
    assert ts.values()[-1] == (n - 1) * 10.0
    assert ts.latest() == (n - 1.0, (n - 1) * 10.0)


def test_timeseries_empty():
    ts = TimeSeries("x")
    assert len(ts) == 0 and ts.latest() is None and ts.samples() == []


# -- WindowedHistogram -------------------------------------------------------
def test_windowed_histogram_cumulative_exact_aggregates():
    h = WindowedHistogram("lat")
    for v in [1.0, 2.0, 3.0, 10.0]:
        h.observe(v)
    assert h.count == 4
    assert h.sum == 16.0
    assert h.min == 1.0 and h.max == 10.0
    s = h.summary()
    assert s["count"] == 4 and s["mean"] == 4.0
    assert set(s) == {"count", "sum", "mean", "min", "max",
                      "p50", "p90", "p99", "p999"}


def test_windowed_histogram_percentile_relative_error():
    # Log buckets at factor 1.25: every percentile is within 25% above
    # the exact value (bucket upper bound) and never below it.
    h = WindowedHistogram("lat")
    values = [float(v) for v in range(1, 1001)]
    for v in values:
        h.observe(v)
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = values[int(q * len(values)) - 1]
        approx = h.percentile(q)
        assert exact <= approx <= exact * 1.25 + 1e-9


def test_windowed_histogram_percentile_clamped_to_min_max():
    h = WindowedHistogram("lat")
    h.observe(7.0)
    # A single sample: every percentile is that sample, not the bucket
    # upper bound above it.
    assert h.percentile(0.5) == 7.0
    assert h.percentile(0.999) == 7.0


def test_windowed_histogram_empty_summary_and_percentile():
    h = WindowedHistogram("lat")
    assert h.summary() == {"count": 0}
    assert h.percentile(0.99) == 0.0
    assert h.windows() == []


def test_rotate_closes_windows_and_skips_empty():
    h = WindowedHistogram("lat")
    h.observe(5.0)
    h.observe(6.0)
    first = h.rotate(100.0)
    assert first is not None
    assert first["count"] == 2
    assert first["start_ms"] == 0.0 and first["end_ms"] == 100.0
    # Quiet interval: nothing retained, start advances.
    assert h.rotate(200.0) is None
    h.observe(50.0)
    second = h.rotate(300.0)
    assert second["start_ms"] == 200.0 and second["end_ms"] == 300.0
    windows = h.windows()
    assert [w.count for w in windows] == [2, 1]
    assert [w.end_ms for w in windows] == [100.0, 300.0]
    # Cumulative aggregates are unaffected by rotation.
    assert h.count == 3 and h.sum == 61.0


def test_rotate_window_capacity_bounded():
    h = WindowedHistogram("lat")
    n = WINDOW_CAPACITY + 10
    for i in range(n):
        h.observe(1.0)
        h.rotate(float(i + 1))
    assert len(h.windows()) == WINDOW_CAPACITY
    assert h.count == n  # cumulative stays exact


def test_registry_windowed_histogram_registration():
    m = MetricsRegistry()
    h1 = m.windowed_histogram("smock.request_sim_ms", op="send_mail")
    h2 = m.windowed_histogram("smock.request_sim_ms", op="send_mail")
    assert h1 is h2
    h1.observe(3.0)
    snap = m.snapshot()["histograms"]
    assert snap["smock.request_sim_ms{op=send_mail}"]["count"] == 1
    assert "p999" in snap["smock.request_sim_ms{op=send_mail}"]
    # A name already registered as a plain Histogram cannot be re-issued
    # windowed (and vice versa).
    m.observe("plain", 1.0)
    assert isinstance(m.histogram("plain"), Histogram)
    with pytest.raises(TypeError):
        m.windowed_histogram("plain")


# -- TelemetrySampler --------------------------------------------------------
def _ticker(sim, n, step=100.0):
    for _ in range(n):
        yield sim.timeout(step)


def test_sampler_probes_sampled_each_tick():
    sim = Simulator()
    sampler = TelemetrySampler(sim, interval_ms=250.0)
    depth = {"v": 0.0}
    sampler.add_probe("depth", lambda: depth["v"])
    sampler.add_probe("skip", lambda: None)
    sim.process(_ticker(sim, 10))  # runs to t=1000
    sampler.start()
    assert sampler.active
    sim.run()
    series = sampler.series("depth")
    assert len(series) == sampler.ticks >= 4
    assert [t for t, _v in series.samples()] == [
        250.0 * (i + 1) for i in range(len(series))
    ]
    assert len(sampler.series("skip")) == 0
    assert "depth" in sampler.snapshot()


def test_sampler_stops_when_heap_drains():
    # The sampler must never keep an otherwise-finished run alive:
    # sim.run() terminates at most one interval after quiescence.
    sim = Simulator()
    sampler = TelemetrySampler(sim, interval_ms=250.0)
    sampler.add_probe("x", lambda: 1.0)
    sim.process(_ticker(sim, 3))  # last workload event at t=300
    sampler.start()
    sim.run()
    assert sim.now <= 300.0 + 250.0
    assert not sampler.active


@pytest.mark.parametrize("interval_ms", [0, 0.0, -250.0, float("nan"), float("inf")])
def test_sampler_rejects_an_interval_that_is_not_positive_and_finite(interval_ms):
    """``None`` (no sampler at all) is the only off state: a sampler
    that would never tick is refused instead of built disabled."""
    with pytest.raises(ValueError, match="interval_ms"):
        TelemetrySampler(Simulator(), interval_ms=interval_ms)


def test_sampler_counter_rate():
    sim = Simulator()
    m = MetricsRegistry()
    sampler = TelemetrySampler(sim, metrics=m, interval_ms=1000.0)
    sampler.add_counter_rate("retry_rate", "smock.retries")

    def workload():
        for _ in range(4):
            yield sim.timeout(500.0)
            m.inc("smock.retries", 3, op="send")  # labeled: still summed

    sim.process(workload())
    sampler.start()
    sim.run()
    values = sampler.series("retry_rate").values()
    assert values and all(v >= 0.0 for v in values)
    # The rate integral recovers the total count: sum(rate * interval).
    total = sum(v * sampler.interval_ms / 1000.0 for v in values)
    assert total == pytest.approx(12.0)
    assert max(values) == pytest.approx(6.0)  # 3 per 500 ms while moving


def test_sampler_watch_resource():
    sim = Simulator()
    sampler = TelemetrySampler(sim, interval_ms=100.0)
    res = Resource(sim, capacity=1)
    sampler.watch_resource(res, node="gw")

    def workload():
        yield from res.use(150.0)
        yield sim.timeout(200.0)

    sim.process(workload())
    sampler.start()
    sim.run()
    values = sampler.series("resource.queue_depth", node="gw").values()
    assert values and all(v == 0.0 for v in values)


def test_sampler_watch_utilization_per_interval():
    sim = Simulator()
    sampler = TelemetrySampler(sim, interval_ms=100.0)
    res = Resource(sim, capacity=1)
    sampler.watch_utilization(res, node="gw")

    def workload():
        # Busy exactly for the second sampling interval [100, 200].
        yield sim.timeout(100.0)
        yield from res.use(100.0)
        yield sim.timeout(200.0)

    sim.process(workload())
    sampler.start()
    sim.run()
    series = sampler.series("resource.utilization", node="gw")
    by_time = dict(series.samples())
    # First tick has no previous window: probe returns None, no sample
    # at t=100.
    assert 100.0 not in by_time
    assert by_time[200.0] == pytest.approx(1.0)  # fully busy
    assert by_time[300.0] == pytest.approx(0.0)  # idle again


def test_sampler_rotates_windowed_histograms_into_series():
    sim = Simulator()
    m = MetricsRegistry()
    sampler = TelemetrySampler(sim, metrics=m, interval_ms=100.0)
    hist = m.windowed_histogram("op_ms", op="send")

    def workload():
        for v in (10.0, 20.0, 30.0):
            hist.observe(v)
            yield sim.timeout(100.0)

    sim.process(workload())
    sampler.start()
    sim.run()
    assert len(hist.windows()) >= 2
    p99 = sampler.series("op_ms.p99", op="send")
    assert len(p99) == len(hist.windows())
    assert all(v >= 10.0 for v in p99.values())
    assert len(sampler.series("op_ms.p50", op="send")) == len(p99)
    assert len(sampler.series("op_ms.p999", op="send")) == len(p99)
