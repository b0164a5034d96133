"""Counter/histogram correctness, labels, percentiles, disabled mode."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import HISTOGRAM_CAP, percentile


def test_counter_increments_and_labels():
    m = MetricsRegistry()
    m.inc("planner.plans_computed")
    m.inc("planner.plans_computed", 2)
    m.inc("planner.plans_computed", algorithm="dp_chain")
    snap = m.snapshot()
    assert snap["counters"]["planner.plans_computed"] == 3
    assert snap["counters"]["planner.plans_computed{algorithm=dp_chain}"] == 1


def test_label_order_is_canonical():
    m = MetricsRegistry()
    m.inc("x", b=1, a=2)
    m.inc("x", a=2, b=1)
    assert m.snapshot()["counters"] == {"x{a=2,b=1}": 2}


def test_histogram_summary_exact_percentiles():
    m = MetricsRegistry()
    for v in range(1, 101):  # 1..100
        m.observe("latency_ms", float(v))
    s = m.snapshot()["histograms"]["latency_ms"]
    assert s["count"] == 100
    assert s["min"] == 1.0 and s["max"] == 100.0
    assert s["mean"] == pytest.approx(50.5)
    assert s["p50"] == 50.0
    assert s["p90"] == 90.0
    assert s["p99"] == 99.0


def test_histogram_single_observation():
    m = MetricsRegistry()
    m.observe("x", 7.0)
    s = m.histogram("x").summary()
    assert s["p50"] == s["p90"] == s["p99"] == 7.0


def test_histogram_cap_keeps_exact_aggregates():
    h = MetricsRegistry().histogram("big")
    for v in range(HISTOGRAM_CAP + 10):
        h.observe(float(v))
    assert h.count == HISTOGRAM_CAP + 10
    assert h.max == float(HISTOGRAM_CAP + 9)  # max exact beyond the cap
    assert len(h._values) == HISTOGRAM_CAP


def test_percentile_nearest_rank():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0
    assert percentile([5.0], 0.01) == 5.0


def test_percentile_is_total():
    # Edge cases must not raise: empty input and out-of-range ranks
    # clamp instead of blowing up mid-report.
    assert percentile([], 0.5) == 0.0
    assert percentile([], 0.0) == 0.0
    assert percentile([7.0], 0.0) == 7.0
    assert percentile([7.0], 1.0) == 7.0
    assert percentile([1.0, 2.0], 1.0) == 2.0
    assert percentile([1.0, 2.0], 2.0) == 2.0  # rank clamped to len


def test_snapshot_and_render_label_ordering():
    # Labels are canonicalised (sorted by key) in every rendered form,
    # regardless of the order call sites pass them in.
    m = MetricsRegistry()
    m.inc("req", op="send", site="sd")
    m.inc("req", site="sd", op="send")
    m.observe("lat_ms", 1.0, zone="b", op="x")
    snap = m.snapshot()
    assert snap["counters"] == {"req{op=send,site=sd}": 2}
    assert list(snap["histograms"]) == ["lat_ms{op=x,zone=b}"]
    text = m.render()
    assert "req{op=send,site=sd}" in text
    assert "lat_ms{op=x,zone=b}" in text
    assert "zone=b,op=x" not in text and "site=sd,op=send" not in text


def test_disabled_registry_records_nothing():
    m = MetricsRegistry(enabled=False)
    m.inc("a")
    m.observe("c", 2.0)
    snap = m.snapshot()
    assert snap == {"counters": {}, "histograms": {}}


def test_render_mentions_each_metric():
    m = MetricsRegistry()
    m.inc("requests", 4, op="send")
    m.observe("ms", 1.5)
    text = m.render()
    assert "requests{op=send}" in text and "4" in text
    assert "ms" in text and "p99" in text
    assert MetricsRegistry().render() == "(no metrics recorded)"
