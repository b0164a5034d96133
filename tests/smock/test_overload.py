"""Unit tests for the overload-protection primitives (sim-clock only),
and the pin of the counters a protected load cell exports."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.load import LoadConfig, run_load_cell, sweep
from repro.obs import Observability
from repro.sim import FlashCrowdProcess
from repro.smock import CircuitBreaker, OverloadManager, RetryPolicy, TokenBucket
from repro.smock.overload import (
    BREAKER_BUCKETS,
    BREAKER_CLOSED,
    BREAKER_COOLDOWN_MS,
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_HALF_OPEN,
    BREAKER_HALF_OPEN_MAX,
    BREAKER_OPEN,
    BREAKER_WINDOW_MS,
    BUCKET_BURST,
    BUCKET_RATE_PER_S,
    MAX_QUEUE,
    SHED_RETRY_AFTER_MS,
)


class TestConfig:
    def test_defaults_validate(self):
        """The shipped constants satisfy the bounds each mechanism needs."""
        assert MAX_QUEUE >= 1
        assert BUCKET_RATE_PER_S > 0 and BUCKET_BURST > 0
        assert 0.0 < BREAKER_FAILURE_THRESHOLD <= 1.0
        assert BREAKER_BUCKETS >= 1 and BREAKER_HALF_OPEN_MAX >= 1


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
    """Feed enough failures to trip a breaker."""
    for i in range(10):
        br.record(now + i, ok=False)
    assert br.state == BREAKER_OPEN
    return now + 9


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        br = CircuitBreaker()
        assert br.state == BREAKER_CLOSED
        assert br.allow(0.0) == (True, 0.0)

    def test_trips_on_failure_rate(self):
        br = CircuitBreaker()
        # below min_requests: no trip even at 100% failures
        for i in range(9):
            br.record(float(i), ok=False)
        assert br.state == BREAKER_CLOSED
        br.record(9.0, ok=False)
        assert br.state == BREAKER_OPEN
        assert br.trips == 1

    def test_successes_keep_it_closed(self):
        br = CircuitBreaker()
        for i in range(40):
            # 25% failures < 50% threshold
            br.record(float(i), ok=(i % 4 != 0))
        assert br.state == BREAKER_CLOSED

    def test_open_fast_fails_with_cooldown_hint(self):
        br = CircuitBreaker()
        t = _drive_to_open(br)
        allowed, retry_after = br.allow(t + 1.0)
        assert not allowed
        assert 0.0 < retry_after <= BREAKER_COOLDOWN_MS
        assert br.fast_fails == 1

    def test_half_open_probe_budget(self):
        br = CircuitBreaker()
        t = _drive_to_open(br)
        after = t + BREAKER_COOLDOWN_MS + 1.0
        # cooldown elapsed: bounded probes pass, the rest fast-fail
        for _ in range(BREAKER_HALF_OPEN_MAX):
            assert br.allow(after) == (True, 0.0)
        assert br.state == BREAKER_HALF_OPEN
        allowed, _ = br.allow(after)
        assert not allowed

    def test_half_open_success_closes(self):
        br = CircuitBreaker()
        t = _drive_to_open(br)
        after = t + BREAKER_COOLDOWN_MS + 1.0
        for _ in range(BREAKER_HALF_OPEN_MAX):
            assert br.allow(after)[0]
            br.record(after, ok=True)
        assert br.state == BREAKER_CLOSED
        # and the tripped window was cleared: one failure won't re-trip
        br.record(after + 1.0, ok=False)
        assert br.state == BREAKER_CLOSED

    def test_half_open_failure_retrips(self):
        br = CircuitBreaker()
        t = _drive_to_open(br)
        after = t + BREAKER_COOLDOWN_MS + 1.0
        assert br.allow(after)[0]
        br.record(after, ok=False)
        assert br.state == BREAKER_OPEN
        assert br.trips == 2

    def test_window_ages_out_old_failures(self):
        br = CircuitBreaker()
        for i in range(9):
            br.record(float(i), ok=False)
        # a full window later those failures are gone
        later = BREAKER_WINDOW_MS + 1_000.0
        br.record(later, ok=False)
        requests, failures = br.window_rates(later)
        assert requests == 1
        assert failures == 1
        assert br.state == BREAKER_CLOSED


class _FakeSim(SimpleNamespace):
    pass


def _manager():
    return OverloadManager(_FakeSim(now=0.0))


class TestOverloadManager:
    def _node(self, depth):
        return SimpleNamespace(
            name="n0", cpu=SimpleNamespace(queue_length=depth)
        )

    def test_admit_below_bound(self):
        m = _manager()
        assert m.admit(self._node(MAX_QUEUE - 1)) is None
        assert m.stats.shed == 0

    def test_shed_at_bound_returns_retry_after(self):
        m = _manager()
        assert m.admit(self._node(MAX_QUEUE)) == SHED_RETRY_AFTER_MS
        assert m.admit(self._node(MAX_QUEUE + 5)) == SHED_RETRY_AFTER_MS
        assert m.stats.shed == 2

    def test_bucket_shared_per_client_node(self):
        m = _manager()
        assert m.bucket("a") is m.bucket("a")
        assert m.bucket("a") is not m.bucket("b")

    def test_breaker_fresh_per_proxy(self):
        m = _manager()
        b1, b2 = m.breaker(), m.breaker()
        assert b1 is not b2
        _drive_to_open(b1)
        assert m.breaker_trips == 1

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
    (``golden/protected_cell_counters.json``, recorded at commit 356d544
    from this very cell, at the shipped protection constants: sheds,
    throttles, breaker fast-fails, timeouts and retries that succeeded or
    ran out all fire).  The planner's own counters are
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
        protection=True,
        retry_policy=RetryPolicy(timeout_ms=150.0, max_retries=2),
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
