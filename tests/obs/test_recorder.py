"""JSON-lines round-trip and tree-report rendering."""

import json

from repro.obs import Tracer, load_jsonl


def child_spans(recorder, span):
    """The spans whose parent is ``span``, in recording order."""
    return [r for r in recorder.spans() if r.get("parent_id") == span["span_id"]]


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    clock = [0.0]
    tracer.bind_sim_clock(lambda: clock[0])
    with tracer.span("client_connect", client_node="laptop") as root:
        clock[0] = 10.0
        with tracer.span("lookup"):
            clock[0] = 25.0
        with tracer.span("bind"):
            clock[0] = 90.0
        root.set(total_ms=clock[0])
    tracer.event("sim.dispatch", event="<Timeout>")
    return tracer


def test_jsonl_round_trip(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.jsonl")
    written = tracer.recorder.to_jsonl(path)
    assert written == len(tracer.recorder) == 4  # 3 spans + 1 event

    loaded = load_jsonl(path)
    assert loaded.records == json_normalized(tracer.recorder.records)


def json_normalized(records):
    """What records look like after a JSON round-trip."""
    return [json.loads(json.dumps(r, sort_keys=True, default=str)) for r in records]


def test_jsonl_round_trip_preserves_structure(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.jsonl")
    tracer.recorder.to_jsonl(path)
    loaded = load_jsonl(path)

    root = loaded.spans("client_connect")[0]
    children = child_spans(loaded, root)
    assert [c["name"] for c in children] == ["lookup", "bind"]
    assert root["attrs"]["client_node"] == "laptop"
    assert root["attrs"]["total_ms"] == 90.0
    assert loaded.spans("bind")[0]["sim_ms"] == 65.0
    assert loaded.events("sim.dispatch")[0]["attrs"]["event"] == "<Timeout>"


def test_every_line_is_valid_json(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "trace.jsonl"
    tracer.recorder.to_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(tracer.recorder)
    for line in lines:
        record = json.loads(line)
        assert record["type"] in {"span", "event"}


def test_tree_report_indents_children():
    tracer = _sample_tracer()
    report = tracer.recorder.tree_report()
    lines = report.splitlines()
    assert lines[0].startswith("client_connect")
    assert lines[1].startswith("  lookup")
    assert lines[2].startswith("  bind")
    assert "sim=65.00ms" in lines[2]
    assert "wall=" in lines[0]


def test_tree_report_orphans_surface_at_root():
    tracer = Tracer()
    parent = tracer.start_span("never_finished")
    tracer.start_span("child", parent=parent).finish()
    # parent never finishes, so its record never lands in the recorder.
    report = tracer.recorder.tree_report()
    assert report.splitlines()[0].startswith("child")


def test_empty_recorder_reports_nothing():
    assert Tracer().recorder.tree_report() == "(no spans recorded)"
