"""Flight-recorder ring semantics, JSONL dumps, and sampler integration."""

import io
import json

from repro.obs import FlightRecorder, TelemetrySampler
from repro.obs.flight import FLIGHT_CAPACITY, dump_records_jsonl
from repro.obs.recorder import TraceRecorder
from repro.sim import Simulator


def test_ring_bounded_with_dropped_counter():
    fr = FlightRecorder()
    for i in range(FLIGHT_CAPACITY + 2):
        fr.record("sample", float(i), n=i)
    assert len(fr) == FLIGHT_CAPACITY
    assert fr.dropped == 2
    assert [r["n"] for r in fr.records()] == list(range(2, FLIGHT_CAPACITY + 2))
    assert fr.records()[0] == {"t_ms": 2.0, "kind": "sample", "n": 2}


def test_event_convenience():
    fr = FlightRecorder()
    fr.event("fault_scheduled", 10.0, spec="crash:gw@10")
    rec = fr.records()[0]
    assert rec["kind"] == "event"
    assert rec["name"] == "fault_scheduled"
    assert rec["spec"] == "crash:gw@10"


def test_dump_jsonl_meta_line_and_records():
    fr = FlightRecorder()
    for i in range(FLIGHT_CAPACITY + 1):
        fr.record("sample", float(i))
    buf = io.StringIO()
    assert fr.dump_jsonl(buf) == FLIGHT_CAPACITY
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines[0] == {"kind": "meta", "records": FLIGHT_CAPACITY, "dropped": 1}
    assert [ln["t_ms"] for ln in lines[1:]] == [
        float(i) for i in range(1, FLIGHT_CAPACITY + 1)
    ]


def test_dump_jsonl_creates_parent_dirs(tmp_path):
    fr = FlightRecorder()
    fr.event("violation", 5.0, detail="mail lost")
    path = tmp_path / "deep" / "nested" / "flight.jsonl"
    assert fr.dump_jsonl(str(path)) == 1
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "meta"
    assert json.loads(lines[1])["detail"] == "mail lost"


def test_dump_records_jsonl_serializes_non_json_payloads(tmp_path):
    class Odd:
        def __str__(self):
            return "odd!"

    path = str(tmp_path / "f.jsonl")
    dump_records_jsonl([{"t_ms": 0.0, "kind": "event", "obj": Odd()}], path)
    with open(path) as fp:
        lines = fp.read().splitlines()
    assert json.loads(lines[1])["obj"] == "odd!"


def test_sampler_feeds_flight_recorder():
    sim = Simulator()
    flight = FlightRecorder()
    sampler = TelemetrySampler(sim, interval_ms=100.0, flight=flight)
    sampler.add_probe("depth", lambda: 2.0)

    def workload():
        yield sim.timeout(250.0)

    sim.process(workload())
    sampler.start()
    sim.run()
    samples = [r for r in flight.records() if r["kind"] == "sample"]
    assert len(samples) == sampler.ticks >= 2
    assert all(r["data"]["depth"] == 2.0 for r in samples)
    assert samples[0]["t_ms"] == 100.0


def test_trace_recorder_to_jsonl_creates_parent_dirs(tmp_path):
    rec = TraceRecorder()
    rec.add({"name": "s", "sim_start_ms": 0.0, "sim_ms": 1.0})
    path = tmp_path / "out" / "traces" / "spans.jsonl"
    n = rec.to_jsonl(str(path))
    assert n >= 1
    assert path.exists()
    assert json.loads(path.read_text().splitlines()[0])["name"] == "s"
