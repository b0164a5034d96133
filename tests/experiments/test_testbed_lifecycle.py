"""The experiment lifecycle on :class:`MailTestbed`.

``connect`` → ``start_workloads`` → ``inject`` → ``drive`` → ``converge``
→ ``slo_report`` is the one copy of the steps the chaos harness, the
load harness, Figure 7 and the ``mail`` command all walk; these tests
pin each step's contract.  (That the harnesses built on them still
report what they did before is ``tests/integration/test_harness_identity.py``.)
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import check_convergence
from repro.experiments import build_mail_testbed
from repro.faults import FaultPlan
from repro.obs import FlightRecorder, Observability
from repro.obs.slo import DEFAULT_MAIL_SLO
from repro.services.mail import WorkloadConfig
from repro.smock import LeaseConfig, RetryPolicy


def _config(user="Bob", n_sends=6, n_receives=1):
    return WorkloadConfig(
        user=user, peers=["Alice"], n_sends=n_sends, n_receives=n_receives,
        max_sensitivity=3,
    )


class TestConnect:
    def test_plain_runtime_has_no_replanner_and_tracks_nothing(self):
        tb = build_mail_testbed(clients_per_site=1)
        proxy = tb.connect("sandiego-client1", "Bob")
        assert proxy.user == "Bob"
        assert tb.runtime.replanner is None

    @pytest.mark.parametrize("autonomic, self_healing", [(True, False), (False, True)])
    def test_binding_is_tracked_when_a_replanner_exists(self, autonomic, self_healing):
        tb = build_mail_testbed(clients_per_site=1, autonomic=autonomic)
        if self_healing:
            tb.runtime.enable_self_healing()
        proxy = tb.connect("sandiego-client1", "Bob")
        (binding,) = tb.runtime.replanner.bindings
        assert binding.proxy is proxy
        assert binding.request.client_node == "sandiego-client1"
        tb.runtime.monitor.stop()
        if self_healing:
            tb.runtime.failure_detector.stop()

    def test_retry_policy_is_installed_only_when_given(self):
        tb = build_mail_testbed(clients_per_site=2)
        bare = tb.connect("sandiego-client1", "Bob")
        policy = RetryPolicy(timeout_ms=1234.0, seed=5)
        retrying = tb.connect("sandiego-client2", "Alice", policy)
        assert bare.retry_policy is None
        assert retrying.retry_policy is policy


class TestStartWorkloadsAndInject:
    def test_processes_are_named_prefix_plus_user(self):
        tb = build_mail_testbed(clients_per_site=2)
        proxies = [
            tb.connect("sandiego-client1", "Bob"),
            tb.connect("sandiego-client2", "Alice"),
        ]
        procs = tb.start_workloads(
            proxies, [_config("Bob"), _config("Alice")], "wl:"
        )
        assert [p.name for p in procs] == ["wl:Bob", "wl:Alice"]
        tb.sim.run()
        assert all(p.triggered and not p.failed for p in procs)
        assert [p.value.user for p in procs] == ["Bob", "Alice"]

    def test_inject_schedules_the_plan_and_notes_it_in_the_flight_ring(self):
        flight = FlightRecorder()
        tb = build_mail_testbed(
            clients_per_site=1, telemetry_interval_ms=500.0, flight=flight,
            obs=Observability(tracing=False, metrics=True),
        )
        now = tb.sim.now
        plan = FaultPlan.parse(
            [f"crash:sandiego-gw@{now + 100.0}", f"restart:sandiego-gw@{now + 200.0}"]
        )
        tb.inject(plan)
        events = [r for r in flight.records() if r.get("name") == "fault_scheduled"]
        assert [e["spec"] for e in events] == plan.describe()
        assert {e["t_ms"] for e in events} == {now}
        tb.sim.run(until=now + 150.0)
        assert not tb.runtime.transport.node("sandiego-gw").up  # ground truth


class TestDrive:
    def _testbed(self, **kwargs):
        tb = build_mail_testbed(clients_per_site=1, **kwargs)
        tb.runtime.enable_self_healing()
        return tb

    def test_done_is_not_consulted_before_settle_until(self):
        tb = self._testbed()
        t0 = tb.sim.now
        asked_at = []

        def done():
            asked_at.append(tb.sim.now)
            return True

        tb.drive(done, deadline=t0 + 60_000.0, settle_until=t0 + 12_000.0)
        assert asked_at and min(asked_at) >= t0 + 12_000.0
        # 5 s slices: the first check at or after the settle point ends it
        assert tb.sim.now == t0 + 15_000.0

    def test_clock_never_passes_the_deadline(self):
        tb = self._testbed()
        t0 = tb.sim.now
        tb.drive(lambda: False, deadline=t0 + 7_300.0)
        assert tb.sim.now == t0 + 7_300.0

    def test_stops_detector_monitor_and_a_leased_lookup(self):
        tb = self._testbed(lookup_leases=LeaseConfig(duration_ms=15_000.0))
        rt = tb.runtime
        assert rt.failure_detector._running and rt.monitor._running
        assert rt.lookup._running
        tb.drive(lambda: True, deadline=tb.sim.now + 10_000.0)
        assert not rt.failure_detector._running
        assert not rt.monitor._running
        assert not rt.lookup._running
        tb.sim.run()  # the perpetual loops are gone: the event list drains


class TestConverge:
    def test_a_dirty_view_is_flushed_and_nothing_stays_dirty(self):
        tb = build_mail_testbed(clients_per_site=1, flush_policy="never")
        proxy = tb.connect("sandiego-client1", "Bob")
        tb.start_workloads([proxy], [_config(n_sends=8, n_receives=0)], "wl:")
        tb.sim.run()
        directory = tb.runtime.coherence
        assert any(e.dirty for e in directory._replicas.values())
        assert check_convergence(tb.runtime)

        tb.converge()
        assert not any(e.dirty for e in directory._replicas.values())
        assert check_convergence(tb.runtime) == []


class TestSloReport:
    @pytest.fixture
    def testbed(self):
        tb = build_mail_testbed(
            clients_per_site=1, telemetry_interval_ms=500.0,
            obs=Observability(tracing=False, metrics=True),
        )
        proxy = tb.connect("sandiego-client1", "Bob")
        tb.start_workloads([proxy], [_config()], "wl:")
        tb.sim.run(until=tb.sim.now + 20_000.0)
        return tb

    def test_accepts_default_a_path_and_a_mapping(self, testbed, tmp_path):
        spec_file = tmp_path / "slo.json"
        spec_file.write_text(json.dumps(DEFAULT_MAIL_SLO))
        reports = [
            testbed.slo_report(spec)
            for spec in ("default", str(spec_file), DEFAULT_MAIL_SLO)
        ]
        assert reports[0].rows
        assert any(row.windows > 0 for row in reports[0].rows)
        assert len({json.dumps(r.to_dict(), sort_keys=True) for r in reports}) == 1
