"""Unit tests for the manager's actuation gates (cooldown, ordering).

The manager is exercised over a stub runtime/replanner so the gate
logic — per-action cooldowns, scale-in-only-after-scale-out, the idle
gate, re-entrancy suppression — is pinned without simulating load.
"""

from __future__ import annotations

import pytest

from repro.autonomic import AutonomicManager, ScaleSignal
from repro.autonomic.manager import COOLDOWN_MS
from repro.experiments import build_mail_testbed
from repro.obs import Observability


class FakeSim:
    def __init__(self):
        self.now = 0.0

    def process(self, gen, name=None):
        # drain synchronously: the fake replan_all never yields
        for _ in gen:
            pass


class FakeProxy:
    requests = 0


class FakeRequest:
    def __init__(self, client_node):
        self.client_node = client_node
        self.request_rate = 10.0


class FakeBinding:
    def __init__(self, client_node="client1"):
        self.proxy = FakeProxy()
        self.request = FakeRequest(client_node)
        self.plan = None


class FakeReplanner:
    def __init__(self):
        self.busy = False
        self.bindings = [FakeBinding()]
        self.autonomic = None
        self.rounds = []

    def replan_all(self, trigger=None):
        self.rounds.append(trigger)
        # a round that installs one instance and retires none
        class _Event:
            installed = ["ViewMailServer@x"]
            retired = []
            rebound = ["client1"]

        self.autonomic.on_round_end(_Event())
        return
        yield  # pragma: no cover - makes this a generator


class FakeSampler:
    interval_ms = 500.0
    flight = None

    def add_scan(self, fn):
        pass

    def all_series(self):
        return []


class FakeRuntime:
    def __init__(self):
        self.sim = FakeSim()
        self.obs = Observability(tracing=False, metrics=True)
        self.sampler = FakeSampler()
        self.monitor = None
        self.failure_detector = None
        self.replanner = FakeReplanner()
        self.network = None
        self.primary = None


def _signal(action, now, rule="r"):
    return ScaleSignal(
        time_ms=now, action=action, rule=rule,
        series="node.cpu_utilization{node=a}", value=0.99, threshold=0.9,
        sustained=3,
    )


@pytest.fixture
def manager(monkeypatch):
    runtime = FakeRuntime()
    mgr = AutonomicManager(runtime)
    runtime.replanner.autonomic = mgr
    # stub out the planner-dependent pieces: rates and view counting
    monkeypatch.setattr(mgr, "_rate_cap", lambda binding: 100.0)
    monkeypatch.setattr(mgr, "_measured_rate", lambda binding: 20.0)
    monkeypatch.setattr(mgr, "_view_count", lambda: 1)
    return mgr


class TestCooldown:
    def test_scale_out_respects_cooldown(self, manager):
        sim = manager.runtime.sim
        rounds = manager.runtime.replanner.rounds
        sim.now = 1_000.0
        manager._on_signal(_signal("scale_out", sim.now))
        assert len(rounds) == 1
        # the engine keeps firing each tick; within cooldown_ms nothing
        # actuates
        sim.now = 3_000.0
        manager._on_signal(_signal("scale_out", sim.now))
        assert len(rounds) == 1
        assert manager.suppressed == 1
        # past the cooldown the next sustained signal actuates again
        sim.now = 1_000.0 + COOLDOWN_MS
        manager._on_signal(_signal("scale_out", sim.now))
        assert len(rounds) == 2

    def test_scale_in_has_its_own_longer_cooldown(self, manager):
        sim = manager.runtime.sim
        rounds = manager.runtime.replanner.rounds
        sim.now = 1_000.0
        manager._on_signal(_signal("scale_out", sim.now))
        assert manager._scaled_out  # the fake round installed a replica
        sim.now = 10_000.0
        manager._on_signal(_signal("scale_in", sim.now))
        assert len(rounds) == 2
        # scale_in cooldown (8 s default) gates the next retirement ...
        sim.now = 14_000.0
        manager._on_signal(_signal("scale_in", sim.now))
        assert len(rounds) == 2
        # ... but does not gate an interleaved scale_out (per-action keys)
        manager._on_signal(_signal("scale_out", sim.now))
        assert len(rounds) == 3


class TestOrderingGates:
    def test_scale_in_ignored_before_any_scale_out(self, manager):
        manager.runtime.sim.now = 1_000.0
        manager._on_signal(_signal("scale_in", 1_000.0))
        assert manager.runtime.replanner.rounds == []

    def test_idle_gate_blocks_bind_phase_saturation(self, manager, monkeypatch):
        # bind-time planning work saturates the server node with no
        # client traffic: measured offered load ~0 must not scale out
        monkeypatch.setattr(manager, "_measured_rate", lambda binding: 0.0)
        manager.runtime.sim.now = 1_000.0
        manager._on_signal(_signal("scale_out", 1_000.0))
        assert manager.runtime.replanner.rounds == []
        assert manager.suppressed == 1
        # and the cooldown clock did not start: real load can fire now
        monkeypatch.setattr(manager, "_measured_rate", lambda binding: 20.0)
        manager.runtime.sim.now = 1_500.0
        manager._on_signal(_signal("scale_out", 1_500.0))
        assert len(manager.runtime.replanner.rounds) == 1

    def test_reentrancy_suppressed_while_replanning(self, manager):
        manager.runtime.replanner.busy = True
        manager.runtime.sim.now = 1_000.0
        manager._on_signal(_signal("scale_out", 1_000.0))
        assert manager.runtime.replanner.rounds == []
        assert manager.suppressed == 1

    def test_planned_rates_written_and_clamped(self, manager, monkeypatch):
        monkeypatch.setattr(manager, "_rate_cap", lambda binding: 15.0)
        monkeypatch.setattr(manager, "_measured_rate", lambda binding: 50.0)
        manager.runtime.sim.now = 1_000.0
        manager._on_signal(_signal("scale_out", 1_000.0))
        binding = manager.runtime.replanner.bindings[0]
        # measured 50 req/s clamped to the chain's 15 req/s ceiling
        assert binding.request.request_rate == 15.0
        assert manager.events[-1].planned_rates == {"client1": 15.0}


class TestSwitchType:
    @pytest.mark.parametrize("switch", ["autonomic", "overload_protection"])
    @pytest.mark.parametrize("value", ["yes", None, 1, object()])
    def test_runtime_switch_must_be_a_bool(self, switch, value):
        """A config object or a truthy stand-in must not read as on."""
        with pytest.raises(TypeError, match=switch):
            build_mail_testbed(clients_per_site=1, **{switch: value})
