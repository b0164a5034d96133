"""SLO spec parsing, evaluation, budget burn, and report rendering."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_MAIL_SLO,
    SLOSpec,
    evaluate_slo,
    load_slo_spec,
)


def _spec(**overrides):
    raw = {
        "name": "t",
        "error_budget": 0.25,
        "ops": {"send_mail": {"p50_ms": 10.0, "p99_ms": 100.0}},
    }
    raw.update(overrides)
    return SLOSpec.from_dict(raw)


# -- spec validation ---------------------------------------------------------
def test_from_dict_validates():
    spec = _spec()
    assert spec.name == "t"
    assert spec.ops["send_mail"]["p50_ms"] == 10.0
    with pytest.raises(ValueError, match="non-empty 'ops'"):
        SLOSpec.from_dict({"name": "x"})
    with pytest.raises(ValueError, match="unknown objectives"):
        _spec(ops={"send_mail": {"p17_ms": 1.0}})
    with pytest.raises(ValueError, match="error_budget"):
        _spec(error_budget=0.0)
    with pytest.raises(ValueError, match="error_budget"):
        _spec(error_budget=1.5)
    with pytest.raises(ValueError, match="mapping of objectives"):
        _spec(ops={"send_mail": {}})


def test_default_spec_is_valid():
    spec = SLOSpec.from_dict(DEFAULT_MAIL_SLO)
    assert spec.name == "mail-default"
    assert set(spec.ops) == {"send_mail", "fetch_mail"}
    assert spec.max_degraded_read_fraction == 0.5
    assert spec.read_ops == ("fetch_mail",)


# -- evaluation --------------------------------------------------------------
def _observe(m, op, values):
    h = m.windowed_histogram("smock.request_sim_ms", op=op)
    for v in values:
        h.observe(v)
    return h


def test_evaluate_pass_and_fail_cumulative():
    m = MetricsRegistry()
    _observe(m, "send_mail", [1.0] * 99 + [50.0])
    report = evaluate_slo(_spec(), m)
    by_obj = {(r.op, r.objective): r for r in report.rows}
    assert by_obj[("send_mail", "p50_ms")].ok
    assert by_obj[("send_mail", "p99_ms")].ok
    assert report.passed

    m2 = MetricsRegistry()
    _observe(m2, "send_mail", [500.0] * 10)
    report2 = evaluate_slo(_spec(), m2)
    assert not report2.passed
    p50 = next(r for r in report2.rows if r.objective == "p50_ms")
    assert not p50.ok and p50.observed > 10.0
    # No closed windows: all-or-nothing burn over the whole run.
    assert p50.windows == 0
    assert p50.budget_burn == pytest.approx(1.0 / 0.25)


def test_evaluate_budget_burn_per_window():
    m = MetricsRegistry()
    h = _observe(m, "send_mail", [])
    # 4 windows, one of them violating the 100 ms p99 target.
    for window_values, end in [([1.0], 100.0), ([1.0], 200.0),
                               ([400.0], 300.0), ([1.0], 400.0)]:
        for v in window_values:
            h.observe(v)
        h.rotate(end)
    report = evaluate_slo(_spec(), m)
    p99 = next(r for r in report.rows if r.objective == "p99_ms")
    assert p99.windows == 4
    # 1/4 windows violating over a 0.25 budget = burn 1.0: budget exactly
    # spent but not exceeded, and the cumulative p99 stays under target
    # only if the bucket for 400 exceeds it — cumulative p99 here is the
    # 400 ms sample, so the objective fails on the cumulative check.
    assert p99.budget_burn == pytest.approx(1.0)
    assert not p99.ok  # cumulative p99 > 100 ms


def test_evaluate_no_data_rows_fail():
    report = evaluate_slo(_spec(), MetricsRegistry())
    assert not report.passed
    assert all(r.note == "no data" and r.observed is None for r in report.rows)


def test_evaluate_availability_from_error_counter():
    m = MetricsRegistry()
    spec = _spec(ops={"send_mail": {"availability": 0.95}})
    _observe(m, "send_mail", [1.0] * 100)
    m.inc("smock.request_errors", 2, op="send_mail")
    report = evaluate_slo(spec, m)
    row = report.rows[0]
    assert row.objective == "availability"
    assert row.observed == pytest.approx(0.98)
    assert row.ok
    m.inc("smock.request_errors", 10, op="send_mail")
    assert not evaluate_slo(spec, m).rows[0].ok


def test_evaluate_degraded_read_fraction():
    class Stats:
        degraded_reads = 3

    m = MetricsRegistry()
    _observe(m, "fetch_mail", [1.0] * 10)
    spec = _spec(
        ops={"fetch_mail": {"p50_ms": 10.0}},
        max_degraded_read_fraction=0.5,
        read_ops=["fetch_mail"],
    )
    report = evaluate_slo(spec, m, coherence_stats=Stats())
    row = next(r for r in report.rows if r.objective == "degraded_frac")
    assert row.op == "(reads)"
    assert row.observed == pytest.approx(0.3)
    assert row.ok
    Stats.degraded_reads = 8
    report = evaluate_slo(spec, m, coherence_stats=Stats())
    row = next(r for r in report.rows if r.objective == "degraded_frac")
    assert not row.ok


def test_report_render_and_to_dict():
    m = MetricsRegistry()
    _observe(m, "send_mail", [1.0] * 10)
    report = evaluate_slo(_spec(), m)
    text = report.render()
    assert text.startswith("SLO report [t]: PASS")
    assert "send_mail" in text and "p99_ms" in text and "ok" in text
    d = report.to_dict()
    assert d["spec"] == "t" and d["passed"] is True
    assert {row["objective"] for row in d["rows"]} == {"p50_ms", "p99_ms"}

    bad = evaluate_slo(_spec(), MetricsRegistry())
    assert bad.render().startswith("SLO report [t]: FAIL")
    assert "VIOLATED" in bad.render()


# -- spec loading ------------------------------------------------------------
def test_load_default():
    assert load_slo_spec("default").name == "mail-default"


def test_load_inline_json_and_file(tmp_path):
    raw = {"name": "j", "ops": {"op": {"p50_ms": 5}}}
    assert load_slo_spec(json.dumps(raw)).name == "j"
    path = tmp_path / "slo.json"
    path.write_text(json.dumps(raw))
    assert load_slo_spec(str(path)).name == "j"


def test_load_rejects_a_source_that_is_not_json(tmp_path):
    path = tmp_path / "slo.yaml"
    path.write_text("name: mail-prod\nerror_budget: 0.1\n")
    with pytest.raises(ValueError, match="slo.yaml.* is not \"default\", a JSON file or inline JSON"):
        load_slo_spec(str(path))
    with pytest.raises(ValueError, match="'name: x' is not \"default\""):
        load_slo_spec("name: x")


def test_load_rejects_non_mapping():
    with pytest.raises(ValueError, match="did not parse to a mapping"):
        load_slo_spec("[1, 2, 3]")
