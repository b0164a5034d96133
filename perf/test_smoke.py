"""Smoke test of the benchmark itself: ``python -m pytest perf/test_smoke.py``.

Tier-1 collects only ``tests/``; this file is run explicitly.  It drives
``run.py --quick`` (1 rep, sizes / 10) and checks that what the
benchmark prints and what ``BENCHMARK.json`` declares are the same set
of names, and that a violated correctness check fails the run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def names(key: str) -> list:
    return [entry["name"] for entry in SPEC[key]]


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(SPEC["workloads"]) == 7
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    declared = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(set(declared)) == len(declared)
    assert all(NAME.fullmatch(name) for name in declared)
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = run("--quick", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_every_declared_name_is_printed_and_vice_versa(quick_suite):
    assert list(quick_suite["workloads"]) == names("workloads")
    for name, result in quick_suite["workloads"].items():
        assert result["correct"], (name, result["problems"])
        assert list(result["end_to_end"]) == names("end_to_end"), name
        assert sorted(result["per_layer"]) == sorted(names("per_layer")), name
        assert all(row["value"] > 0 for row in result["end_to_end"].values()), name


def test_layers_account_for_the_profiled_time(quick_suite):
    for name in quick_suite["workloads"]:
        trace = json.loads((HERE / "out" / f"trace-{name}.json").read_text(encoding="utf-8"))
        attributed = sum(row["self_s"] for row in trace["layers"].values())
        assert attributed == pytest.approx(trace["profiled_total_s"], rel=0.02), name
        assert {span["name"] for span in trace["spans"]} >= {"rep", "setup", "drive", "collect"}


@pytest.mark.parametrize("traced", ["0", "1"])
def test_one_workload_ends_with_the_contract_line(traced):
    done = run("--quick", "--workload", "bind_storm", "--seed", "3", "--trace", traced)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == names("per_layer" if traced == "1" else "end_to_end")
    assert all(set(row) == {"value", "unit"} for row in last["metrics"].values())


def test_a_violated_check_fails_the_run():
    done = run("--quick", "--workload", "bind_storm", "--expect-binds", "4")
    assert done.returncode != 0
    assert "CHECK FAILED" in done.stdout
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
