"""``tools/check_docs.py --kwargs`` flags keywords that became constants."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)

DOC = """\
`RetryPolicy(timeout_ms=150.0, max_retries=2, seed=3, jitter=0.0)`
`partition_network(net, credential="site", require_split=True)`
`FailureDetector(runtime, monitor, interval_ms=100.0, home_node="a")`
`FlightRecorder(capacity=3)` and `AttributeConflictMap("a", "b", relation="le")`
`run_parallel(net, program, cfg, workers=2, until=1.0, credential="site")`
"""


def test_retired_keywords_in_the_docs_fail(tmp_path, monkeypatch):
    (tmp_path / "doc.md").write_text(DOC, encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "KWARGS_FILES", ("doc.md",))
    assert check_docs.check_kwargs() == [
        "doc.md:1: RetryPolicy() has no keyword 'jitter'",
        "doc.md:2: partition_network() has no keyword 'require_split'",
        "doc.md:3: FailureDetector() has no keyword 'home_node'",
        "doc.md:4: FlightRecorder() has no keyword 'capacity'",
        "doc.md:4: AttributeConflictMap() has no keyword 'relation'",
        "doc.md:5: run_parallel() has no keyword 'credential'",
    ]
