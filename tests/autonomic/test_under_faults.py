"""The autonomic loop under faults: self-healing arms the one replanner.

A runtime built with ``autonomic=True`` already has its replanner (the
autonomic manager asked for it, dormant); ``enable_self_healing()`` then
arms that same object rather than building a second one.  The chaos
composite (load x fault x overload protection x autonomic) is the run
where both halves act on it.
"""

from __future__ import annotations

from repro.chaos import ChaosCaseConfig, run_chaos_case
from repro.experiments import build_mail_testbed
from repro.smock.runtime import MONITOR_POLL_MS


def test_self_healing_arms_the_replanner_the_autonomic_loop_built():
    runtime = build_mail_testbed(clients_per_site=1, autonomic=True).runtime
    replanner = runtime.replanner
    assert replanner is not None and replanner.autonomic is runtime.autonomic
    assert runtime.failure_detector is None
    assert not replanner.monitor._running  # dormant: rounds come from signals

    assert runtime.enable_self_healing() is replanner
    assert runtime.replan_manager() is replanner
    assert replanner.autonomic is runtime.autonomic
    assert runtime.monitor is replanner.monitor
    assert replanner.monitor.poll_interval_ms == MONITOR_POLL_MS
    assert replanner.monitor._running
    assert runtime.failure_detector is not None
    assert runtime.enable_self_healing() is replanner  # idempotent


def test_the_autonomic_chaos_composite_passes_deterministically():
    config = ChaosCaseConfig(
        autonomic=True, load_rate_per_s=40, load_arrival="flash",
        overload_protection=True,
    )
    first = run_chaos_case(0, config)
    second = run_chaos_case(0, config)
    assert first.ok, first.violations
    assert first.signature == second.signature
    assert "autonomic_actions" in first.stats
