"""End-to-end chaos harness tests (each case is one full mail sim run)."""

import pytest

from repro.__main__ import main
from repro.chaos import ChaosCaseConfig, ChaosCaseResult, run_chaos_case

#: fast case: fewer sends and faults than the CLI default, same shape
FAST = ChaosCaseConfig(n_sends=12, n_receives=2, n_faults=2)
FAST_ARGS = ["--sends", "12", "--receives", "2", "--faults", "2"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_case_invariants_hold(seed):
    result = run_chaos_case(seed, FAST)
    assert result.finished
    assert result.violations == []
    assert result.ok
    assert result.plan  # the generated schedule is part of the result
    assert result.acked_sends <= result.attempted_sends


def test_seed_188_flush_retired_mid_flight_keeps_its_replica_id():
    """Regression: a replan round retired a ViewMailServer while its
    flush was in flight; the failed flush requeued under the cleared
    ``replica_id`` (None), and the final sweep's reconcile raised
    ``TypeError`` sorting stash keys [1, None].  The flush now keeps
    the id it drained under, so the batch lands under its family's
    tombstone and is replayed at the primary."""
    result = run_chaos_case(188)
    assert result.finished
    assert result.stats["recovered_updates"] > 0
    assert not [v for v in result.violations if v.startswith("convergence")]
    # Still open (ROADMAP item 4, like seeds 124/130/...): stashed
    # updates the primary had already applied stay counted as lost.
    assert all(v.startswith("durability") and "still lost" in v for v in result.violations)


def test_chaos_sweep_runs_each_seed(capsys):
    assert main(["chaos-sweep", "--seeds", "2", *FAST_ARGS]) == 0
    rows = [
        line.split() for line in capsys.readouterr().out.splitlines()
        if line.split()[:1] in (["0"], ["1"])
    ]
    assert [(row[0], row[1]) for row in rows] == [("0", "ok"), ("1", "ok")]


def test_same_seed_same_signature(capsys):
    assert main([
        "chaos-sweep", "--seed-base", "3", "--seeds", "1",
        "--check-determinism", *FAST_ARGS,
    ]) == 0
    out = capsys.readouterr().out
    assert "1/1 seeds passed" in out and "determinism:" not in out


def test_different_seeds_different_runs():
    a = run_chaos_case(0, FAST)
    b = run_chaos_case(1, FAST)
    assert a.plan != b.plan or a.signature != b.signature


def test_chaos_case_with_telemetry_flight_and_slo():
    cfg = ChaosCaseConfig(
        n_sends=12, n_receives=2, n_faults=2,
        telemetry_interval_ms=500.0, slo="default",
    )
    result = run_chaos_case(0, cfg)
    assert result.finished
    # The flight ring holds the recent sampler ticks plus the scheduled
    # faults, and the SLO report was evaluated over windowed telemetry.
    assert result.flight, "telemetry on but flight ring empty"
    kinds = {r["kind"] for r in result.flight}
    assert "sample" in kinds and "event" in kinds
    scheduled = [
        r for r in result.flight
        if r["kind"] == "event" and r["name"] == "fault_scheduled"
    ]
    assert len(scheduled) == len(result.plan)
    assert result.slo_report is not None
    assert result.slo_report["spec"] == "mail-default"
    assert any(row["windows"] > 0 for row in result.slo_report["rows"])


def test_chaos_telemetry_off_leaves_result_lean():
    result = run_chaos_case(0, FAST)
    assert result.flight is None
    assert result.flight_dropped == 0
    assert result.slo_report is None


def test_result_ok_requires_finished_and_clean():
    clean = ChaosCaseResult(
        seed=0, plan=[], violations=[], signature="x",
        workload_errors=[], acked_sends=1, attempted_sends=1, finished=True,
    )
    assert clean.ok
    assert not ChaosCaseResult(
        seed=0, plan=[], violations=["boom"], signature="x",
        workload_errors=[], acked_sends=1, attempted_sends=1, finished=True,
    ).ok
    assert not ChaosCaseResult(
        seed=0, plan=[], violations=[], signature="x",
        workload_errors=[], acked_sends=1, attempted_sends=1, finished=False,
    ).ok
