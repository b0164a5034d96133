"""Unit tests for client-side robustness: RetryPolicy + _robust_request."""

import random

import pytest

from repro.obs import Observability
from repro.sim import Simulator
from repro.smock import RetryPolicy, ServiceResponse
from repro.smock.proxy import JITTER, ServiceProxy


class FakeRuntime:
    def __init__(self):
        self.sim = Simulator()
        self.obs = Observability(tracing=False, metrics=True)
        self.overload = None


class ScriptedStub:
    """Stands in for ServerStub: plays back a scripted response list.

    Each entry is ``(delay_ms, response)``; a response of ``None`` means
    "never answer" (models a silently dropped message).
    """

    def __init__(self, sim, script):
        self.sim = sim
        self.script = list(script)
        self.seen_keys = []

    def request(self, req):
        self.seen_keys.append(req.idempotency_key)
        delay, resp = self.script.pop(0)
        yield self.sim.timeout(delay)
        if resp is None:
            yield self.sim.event()  # lost on the wire: hangs forever
        return resp


def make_proxy(policy, script):
    rt = FakeRuntime()
    proxy = ServiceProxy(rt, "client", "Iface", root=object.__new__(object))
    proxy.retry_policy = policy
    proxy._stub = ScriptedStub(rt.sim, script)
    return rt, proxy


def run(rt, gen):
    proc = rt.sim.process(gen)
    rt.sim.run()
    if proc.failed:
        raise proc.value
    return proc.value


def test_backoff_is_exponential_and_capped_without_jitter():
    """Dividing out each delay's seeded jitter draw leaves the base."""
    policy = RetryPolicy(seed=5)
    rng = random.Random(5)
    bases = [policy.backoff_ms(a) / (1.0 + JITTER * rng.random()) for a in range(1, 9)]
    assert bases == pytest.approx([50, 100, 200, 400, 800, 1600, 2000, 2000])


def test_backoff_jitter_is_seeded_and_reproducible():
    a = RetryPolicy(seed=42)
    b = RetryPolicy(seed=42)
    seq_a = [a.backoff_ms(i) for i in range(1, 5)]
    seq_b = [b.backoff_ms(i) for i in range(1, 5)]
    assert seq_a == seq_b
    for i, val in enumerate(seq_a, start=1):
        base = 50.0 * 2 ** (i - 1)
        assert base <= val <= base * 1.5


@pytest.mark.parametrize("timeout_ms", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_timeout_rejected(timeout_ms):
    with pytest.raises(ValueError, match="timeout_ms"):
        RetryPolicy(timeout_ms=timeout_ms)


def test_negative_retry_count_rejected():
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    assert RetryPolicy(max_retries=0).max_retries == 0


def test_retryable_failures_are_retried_until_success():
    fail = ServiceResponse.failure("unreachable", retryable=True)
    ok = ServiceResponse(ok=True, payload={}, size_bytes=64)
    rt, proxy = make_proxy(RetryPolicy(timeout_ms=1000, max_retries=4),
                           [(5, fail), (5, fail), (5, ok)])
    resp = run(rt, proxy.request("op"))
    assert resp.ok
    assert proxy.retries == 2
    assert proxy.timeouts == 0
    # All attempts of one logical operation share one idempotency key.
    keys = proxy._stub.seen_keys
    assert len(keys) == 3 and len(set(keys)) == 1 and keys[0]


def test_non_retryable_failure_returns_immediately():
    fatal = ServiceResponse.failure("bad request", retryable=False)
    rt, proxy = make_proxy(RetryPolicy(max_retries=4), [(5, fatal)])
    resp = run(rt, proxy.request("op"))
    assert not resp.ok and "bad request" in resp.error
    assert proxy.retries == 0


def test_dropped_message_is_rescued_by_timeout():
    ok = ServiceResponse(ok=True, payload={}, size_bytes=64)
    rt, proxy = make_proxy(RetryPolicy(timeout_ms=100, max_retries=2),
                           [(5, None), (5, ok)])

    proc = rt.sim.process(proxy.request("op"))
    rt.sim.run(until=10_000.0)  # the hung attempt never completes
    assert proc.triggered and not proc.failed
    assert proc.value.ok
    assert proxy.timeouts == 1
    assert proxy.retries == 1


def test_retry_budget_exhaustion_returns_last_failure():
    fail = ServiceResponse.failure("unreachable", retryable=True)
    rt, proxy = make_proxy(RetryPolicy(timeout_ms=100, max_retries=2),
                           [(5, fail)] * 3)
    resp = run(rt, proxy.request("op"))
    assert not resp.ok
    assert proxy.retries == 2
    counters = rt.obs.metrics.snapshot()["counters"]
    assert counters["smock.retries{op=op,outcome=exhausted}"] == 2


def test_no_policy_uses_fast_path_and_no_keys():
    ok = ServiceResponse(ok=True, payload={}, size_bytes=64)
    rt, proxy = make_proxy(None, [(5, ok)])
    resp = run(rt, proxy.request("op"))
    assert resp.ok
    # The fast path never allocates idempotency keys.
    assert proxy._stub.seen_keys == [None]
    assert proxy.retries == 0 and proxy.timeouts == 0
