"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation DESIGN.md calls out) and attaches the reproduced numbers via
``benchmark.extra_info`` so they appear in ``pytest-benchmark``'s JSON
output; the headline rows are also printed so a plain
``pytest benchmarks/ --benchmark-only`` run shows the reproduction.

Each benchmark additionally runs under a metrics-only
:class:`repro.obs.Observability` bundle (tracing off, so the measured
code keeps its zero-tracing fast path), and the per-benchmark counter
snapshots are written to ``benchmarks/METRICS_SNAPSHOT.json`` at session
end — planner/coherence/simulator counters alongside the timing numbers.
Set ``REPRO_METRICS_SNAPSHOT=0`` to disable the snapshot file.
"""

import json
import os
import pathlib

import pytest

from repro.obs import Observability, set_default_obs

_SNAPSHOT_ENABLED = os.environ.get("REPRO_METRICS_SNAPSHOT", "1") != "0"
_snapshots = {}

#: fail when a cell runs this much slower than its committed ``wall_s``
REGRESSION_FACTOR = 2.0
_WRITE = os.environ.get("REPRO_WRITE_BENCH_BASELINE", "0") == "1"


def check_or_record(path, key, measured, exact=False):
    """Guard ``measured`` against ``path``'s committed ``current[key]``
    cell, or refresh that cell when ``REPRO_WRITE_BENCH_BASELINE=1``.

    ``wall_s`` may not run ``REGRESSION_FACTOR``x slower than committed;
    with ``exact`` every other field (deterministic simulated numbers)
    must equal its committed value.
    """
    if _WRITE:
        data = json.loads(path.read_text()) if path.exists() else {}
        data.setdefault("current", {})[key] = measured
        path.write_text(json.dumps(data, indent=2) + "\n")
        return
    committed = json.loads(path.read_text())["current"][key]
    assert measured["wall_s"] < committed["wall_s"] * REGRESSION_FACTOR, (
        f"{key}: {measured['wall_s']:.3f}s is more than {REGRESSION_FACTOR}x "
        f"slower than the committed {committed['wall_s']:.3f}s baseline"
    )
    if exact:
        for name, value in measured.items():
            assert name == "wall_s" or value == committed[name], (
                f"{key}.{name}: measured {value!r} != committed "
                f"{committed[name]!r} — simulated physics changed; refresh "
                f"with REPRO_WRITE_BENCH_BASELINE=1 if intended"
            )


def pytest_configure(config):
    # Benchmarks are standalone; make `pytest benchmarks/` discover them
    # even though pyproject's testpaths points at tests/.
    pass


@pytest.fixture(autouse=True)
def metrics_snapshot(request):
    """Per-benchmark metrics capture via the process-default obs bundle."""
    if not _SNAPSHOT_ENABLED:
        yield
        return
    obs = Observability(tracing=False, metrics=True)
    previous = set_default_obs(obs)
    try:
        yield
    finally:
        set_default_obs(previous)
        snap = obs.metrics.snapshot()
        if any(snap.values()):
            _snapshots[request.node.nodeid] = snap


def pytest_sessionfinish(session, exitstatus):
    if not (_SNAPSHOT_ENABLED and _snapshots):
        return
    out = pathlib.Path(__file__).parent / "METRICS_SNAPSHOT.json"
    out.write_text(json.dumps(_snapshots, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def report_lines(tmp_path_factory):
    """Collector for reproduced figure/table rows.

    Printed at session end *and* written to ``benchmarks/REPRODUCED.txt``
    (pytest captures teardown prints, so the file is the durable copy).
    """
    import pathlib

    lines = []
    yield lines
    if lines:
        banner = ["=" * 72, "REPRODUCED RESULTS", "=" * 72, *lines, ""]
        text = "\n".join(banner)
        print("\n" + text)
        out = pathlib.Path(__file__).parent / "REPRODUCED.txt"
        out.write_text(text)
