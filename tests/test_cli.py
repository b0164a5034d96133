"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import ALGORITHM_CHOICES, main
from repro.planner import ALGORITHMS
from repro.services.mail.spec import MAIL_SPEC_TEXT
from repro.spec import to_xml
from repro.services.mail import build_mail_spec


def test_fig5(capsys):
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "newyork-gw" in out and "INSECURE" in out


def test_algorithm_choices_are_the_planners():
    assert list(ALGORITHM_CHOICES) == sorted(ALGORITHMS)


def test_fig6(capsys):
    for algorithm in ALGORITHM_CHOICES:
        assert main(["fig6", "--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert out.count("matches the paper") == 3, algorithm


def test_chains(capsys):
    assert main(["chains", "--max-units", "4"]) == 0
    out = capsys.readouterr().out
    assert "MailClient -> MailServer" in out
    assert "valid chains" in out


def test_costs(capsys):
    assert main(["costs"]) == 0
    out = capsys.readouterr().out
    assert "planning" in out and "sum" in out


def test_fig7_subset(capsys):
    assert main(["fig7", "--max-clients", "1", "--scenarios", "DF", "SS"]) == 0
    out = capsys.readouterr().out
    assert "DF" in out and "SS" in out


def test_plan(capsys):
    for algorithm in ALGORITHM_CHOICES:
        assert main(["plan", "--site", "newyork", "--user", "Alice",
                     "--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert "MailClient@newyork-client1" in out, algorithm


@pytest.mark.parametrize("command", ["fig6", "plan", "mail"])
def test_a_retired_algorithm_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--algorithm", "partial_order"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'partial_order'" in capsys.readouterr().err


def test_validate_readable_form(tmp_path, capsys):
    path = tmp_path / "mail.spec"
    path.write_text(MAIL_SPEC_TEXT)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK:" in out and "ViewMailServer" in out


def test_validate_xml_form(tmp_path, capsys):
    path = tmp_path / "mail.xml"
    path.write_text(to_xml(build_mail_spec()))
    assert main(["validate", str(path)]) == 0
    assert "OK:" in capsys.readouterr().out


def test_validate_xml_form_with_declaration(tmp_path, capsys):
    path = tmp_path / "mail.xml"
    path.write_text('<?xml version="1.0"?>\n' + to_xml(build_mail_spec()))
    assert main(["validate", str(path)]) == 0
    assert "OK:" in capsys.readouterr().out


def test_validate_xml_form_with_single_quotes(tmp_path, capsys):
    path = tmp_path / "mail.xml"
    path.write_text(to_xml(build_mail_spec()).replace('"', "'"))
    assert main(["validate", str(path)]) == 0
    assert "OK:" in capsys.readouterr().out


def test_validate_rejects_malformed_xml(tmp_path, capsys):
    path = tmp_path / "bad.xml"
    path.write_text(to_xml(build_mail_spec())[:-20])
    assert main(["validate", str(path)]) == 1
    assert "INVALID: malformed XML" in capsys.readouterr().err


def test_validate_rejects_non_numeric_behavior(tmp_path, capsys):
    path = tmp_path / "bad.xml"
    path.write_text(to_xml(build_mail_spec()).replace('capacity="1000"', 'capacity="lots"'))
    assert main(["validate", str(path)]) == 1
    assert "INVALID: malformed behavior capacity: 'lots'" in capsys.readouterr().err


def test_validate_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("<Component>\nName: X\n")
    assert main(["validate", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_mail_slo_report_and_flight(tmp_path, capsys):
    report_path = tmp_path / "out" / "slo.json"
    flight_path = tmp_path / "out" / "flight.jsonl"
    assert main([
        "mail", "--clients-per-site", "1", "--sends", "10", "--receives", "2",
        "--slo", "default", "--slo-report", str(report_path),
        "--flight", str(flight_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "SLO report [mail-default]:" in out
    assert "send_mail" in out and "p999_ms" in out

    import json

    report = json.loads(report_path.read_text())
    assert report["spec"] == "mail-default"
    assert any(row["windows"] > 0 for row in report["rows"])
    lines = flight_path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "meta"
    assert any(json.loads(ln)["kind"] == "sample" for ln in lines[1:])


def test_mail_chaos_records_each_fault_in_the_flight_ring(tmp_path, capsys):
    flight_path = tmp_path / "flight.jsonl"
    assert main([
        "mail", "--clients-per-site", "1", "--sends", "10", "--receives", "2",
        "--chaos", "crash:sandiego-gw@1000", "--chaos", "restart:sandiego-gw@6000",
        "--flight", str(flight_path),
    ]) == 0
    chaos_lines = [
        line.split("chaos: ", 1)[1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("chaos: ")
    ]

    import json

    records = [json.loads(ln) for ln in flight_path.read_text().splitlines()]
    scheduled = [r["spec"] for r in records if r.get("name") == "fault_scheduled"]
    assert len(chaos_lines) == 2 and scheduled == chaos_lines


@pytest.mark.parametrize("argv, message", [
    (["mail", "--slo-report", "slo.json"], "--slo-report needs --slo"),
    (["load-sweep", "--rates", "40", "--flight", "f.jsonl"], "drop --rates"),
    (["load-sweep", "--rates", "40", "--slo", "default",
      "--slo-report", "slo.json"], "drop --rates"),
])
def test_flags_that_would_be_dropped_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, source", [
    (["mail", "--slo", "name: x"], "'name: x'"),
    (["mail", "--slo", "nonexistent.json"], "'nonexistent.json'"),
    (["chaos-sweep", "--seeds", "1", "--slo", "name: x"], "'name: x'"),
    (["load-sweep", "--slo", '{"name": "x"}'], """'{"name": "x"}'"""),
])
def test_an_unreadable_slo_spec_is_a_usage_error(argv, source, capsys, monkeypatch):
    """Found before anything runs, not when the finished run is graded."""
    import repro.experiments
    import repro.experiments.mail_setup

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for module in (repro.experiments, repro.experiments.mail_setup):
        monkeypatch.setattr(module, "build_mail_testbed", no_run)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--slo: SLO spec" in err and source in err


@pytest.mark.parametrize("argv", [
    ["mail", "--telemetry-interval", "0"],
    ["mail", "--telemetry-interval", "-500"],
    ["chaos-sweep", "--telemetry-interval", "nan"],
])
def test_a_telemetry_interval_that_never_samples_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--telemetry-interval: must be finite and > 0" in capsys.readouterr().err
