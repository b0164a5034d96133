"""Unit tests for the overload-protection primitives (sim-clock only),
and the pin of the counters a protected load cell exports."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.load import LoadConfig, run_load_cell, sweep
from repro.obs import Observability
from repro.sim import FlashCrowdProcess
from repro.smock import (
    CircuitBreaker,
    OverloadConfig,
    OverloadManager,
    RetryPolicy,
    TokenBucket,
)
from repro.smock.overload import BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN


class TestConfig:
    def test_defaults_validate(self):
        OverloadConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"bucket_rate_per_s": 0.0},
            {"bucket_burst": -1.0},
            {"breaker_failure_threshold": 0.0},
            {"breaker_failure_threshold": 1.5},
            {"breaker_buckets": 0},
            {"breaker_half_open_max": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            OverloadConfig(**kwargs)


class TestTokenBucket:
    def test_burst_then_dry(self):
        b = TokenBucket(rate_per_s=10.0, burst=3.0, now_ms=0.0)
        assert b.try_take(0.0)
        assert b.try_take(0.0)
        assert b.try_take(0.0)
        assert not b.try_take(0.0)

    def test_lazy_refill_from_elapsed_sim_time(self):
        b = TokenBucket(rate_per_s=10.0, burst=5.0, now_ms=0.0)
        for _ in range(5):
            assert b.try_take(0.0)
        assert not b.try_take(0.0)
        # 10 tokens/s => one token every 100 ms
        assert not b.try_take(99.0)
        assert b.try_take(100.0)
        assert not b.try_take(100.0)

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate_per_s=1000.0, burst=2.0, now_ms=0.0)
        b.try_take(0.0)
        b._refill(60_000.0)
        assert b.tokens == 2.0

    def test_wait_ms_hint(self):
        b = TokenBucket(rate_per_s=10.0, burst=1.0, now_ms=0.0)
        assert b.wait_ms(0.0) == 0.0
        assert b.try_take(0.0)
        assert b.wait_ms(0.0) == pytest.approx(100.0)
        assert b.wait_ms(50.0) == pytest.approx(50.0)

    def test_failed_take_leaves_tokens(self):
        b = TokenBucket(rate_per_s=1.0, burst=1.0, now_ms=0.0)
        assert b.try_take(0.0)
        before = b.tokens
        assert not b.try_take(0.0)
        assert b.tokens == before


def _drive_to_open(br, now=0.0):
    """Feed enough failures to trip a default-config breaker."""
    for i in range(10):
        br.record(now + i, ok=False)
    assert br.state == BREAKER_OPEN
    return now + 9


class TestCircuitBreaker:
    CFG = OverloadConfig()

    def test_starts_closed_and_allows(self):
        br = CircuitBreaker(self.CFG)
        assert br.state == BREAKER_CLOSED
        assert br.allow(0.0) == (True, 0.0)

    def test_trips_on_failure_rate(self):
        br = CircuitBreaker(self.CFG)
        # below min_requests: no trip even at 100% failures
        for i in range(9):
            br.record(float(i), ok=False)
        assert br.state == BREAKER_CLOSED
        br.record(9.0, ok=False)
        assert br.state == BREAKER_OPEN
        assert br.trips == 1

    def test_successes_keep_it_closed(self):
        br = CircuitBreaker(self.CFG)
        for i in range(40):
            # 25% failures < 50% threshold
            br.record(float(i), ok=(i % 4 != 0))
        assert br.state == BREAKER_CLOSED

    def test_open_fast_fails_with_cooldown_hint(self):
        br = CircuitBreaker(self.CFG)
        t = _drive_to_open(br)
        allowed, retry_after = br.allow(t + 1.0)
        assert not allowed
        assert 0.0 < retry_after <= self.CFG.breaker_cooldown_ms
        assert br.fast_fails == 1

    def test_half_open_probe_budget(self):
        br = CircuitBreaker(self.CFG)
        t = _drive_to_open(br)
        after = t + self.CFG.breaker_cooldown_ms + 1.0
        # cooldown elapsed: bounded probes pass, the rest fast-fail
        for _ in range(self.CFG.breaker_half_open_max):
            assert br.allow(after) == (True, 0.0)
        assert br.state == BREAKER_HALF_OPEN
        allowed, _ = br.allow(after)
        assert not allowed

    def test_half_open_success_closes(self):
        br = CircuitBreaker(self.CFG)
        t = _drive_to_open(br)
        after = t + self.CFG.breaker_cooldown_ms + 1.0
        for _ in range(self.CFG.breaker_half_open_max):
            assert br.allow(after)[0]
            br.record(after, ok=True)
        assert br.state == BREAKER_CLOSED
        # and the tripped window was cleared: one failure won't re-trip
        br.record(after + 1.0, ok=False)
        assert br.state == BREAKER_CLOSED

    def test_half_open_failure_retrips(self):
        br = CircuitBreaker(self.CFG)
        t = _drive_to_open(br)
        after = t + self.CFG.breaker_cooldown_ms + 1.0
        assert br.allow(after)[0]
        br.record(after, ok=False)
        assert br.state == BREAKER_OPEN
        assert br.trips == 2

    def test_window_ages_out_old_failures(self):
        br = CircuitBreaker(self.CFG)
        for i in range(9):
            br.record(float(i), ok=False)
        # a full window later those failures are gone
        later = self.CFG.breaker_window_ms + 1_000.0
        br.record(later, ok=False)
        requests, failures = br.window_rates(later)
        assert requests == 1
        assert failures == 1
        assert br.state == BREAKER_CLOSED


class _FakeSim(SimpleNamespace):
    pass


def _manager(**knobs):
    return OverloadManager(_FakeSim(now=0.0), OverloadConfig(**knobs))


class TestOverloadManager:
    def _node(self, depth):
        return SimpleNamespace(
            name="n0", cpu=SimpleNamespace(queue_length=depth)
        )

    def test_admit_below_bound(self):
        m = _manager(max_queue=4)
        assert m.admit(self._node(3)) is None
        assert m.stats.shed == 0

    def test_shed_at_bound_returns_retry_after(self):
        m = _manager(max_queue=4, shed_retry_after_ms=123.0)
        assert m.admit(self._node(4)) == 123.0
        assert m.admit(self._node(9)) == 123.0
        assert m.stats.shed == 2

    def test_admission_can_be_disabled(self):
        m = _manager(admission=False)
        assert m.admit(self._node(10_000)) is None

    def test_bucket_shared_per_client_node(self):
        m = _manager()
        assert m.bucket("a") is m.bucket("a")
        assert m.bucket("a") is not m.bucket("b")

    def test_bucket_none_when_throttle_off(self):
        assert _manager(throttle=False).bucket("a") is None

    def test_breaker_fresh_per_proxy(self):
        m = _manager()
        b1, b2 = m.breaker(), m.breaker()
        assert b1 is not b2
        _drive_to_open(b1)
        assert m.breaker_trips == 1

    def test_breaker_none_when_disabled(self):
        assert _manager(breaker=False).breaker() is None

    def test_snapshot_shape(self):
        m = _manager()
        m.note_throttled("a")
        m.note_fast_fail("a")
        snap = m.snapshot()
        assert snap == {
            "shed": 0,
            "throttled": 1,
            "breaker_fast_fails": 1,
            "breaker_trips": 0,
        }


def test_protected_cell_counters_match_the_recorded_snapshot(monkeypatch):
    """The per-attempt counters go through handles resolved once; every
    name, label and value must stay what the registry lookups produced
    (``golden/protected_cell_counters.json``, recorded at commit 0ef33b7
    from this very cell: sheds, throttles, breaker fast-fails, timeouts
    and retries that succeeded or ran out all fire).  The planner's own counters are
    pinned by ``tests/planner`` and left out."""
    created = []

    class Capturing(Observability):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(sweep, "Observability", Capturing)
    run_load_cell(
        FlashCrowdProcess(
            40.0, 400.0, at_ms=1000.0, ramp_ms=500.0, hold_ms=2000.0,
            decay_ms=500.0, seed=37,
        ),
        config=LoadConfig(seed=37, duration_ms=4000.0, drain_ms=10000.0, n_users=200),
        n_proxies=3,
        protection=OverloadConfig(
            max_queue=48, breaker_min_requests=5, breaker_failure_threshold=0.05
        ),
        retry_policy=RetryPolicy(timeout_ms=400.0, max_retries=2),
    )
    (obs,) = created
    counters = {
        name: value
        for name, value in obs.metrics.snapshot()["counters"].items()
        if not name.startswith("planner.")
    }
    golden = Path(__file__).parent / "golden" / "protected_cell_counters.json"
    assert counters == json.loads(golden.read_text())
    for family in (
        "overload.shed", "overload.throttled", "overload.breaker_fast_fails",
        "smock.request_timeouts", "smock.retries",
    ):
        assert any(name.startswith(family) for name in counters), family
