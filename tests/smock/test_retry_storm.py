"""Retry-storm behavior: backoff shape, bucket-bounded retries, dedupe.

The three failure modes a flash crowd amplifies:

* clients hammering a saturated server at backoff-base speed — covered
  by the :class:`RetryPolicy` delay-shape tests (exponential growth,
  jitter bounds, Retry-After floors);
* retries multiplying offered load past the token-bucket budget — the
  wire-attempt accounting test pins attempts minus local rejects to the
  bucket's rate * duration + burst envelope;
* shed-then-retried sends double-applying at the store — the dedupe
  test asserts one stored message per acked send even when retries and
  sheds both happened.
"""

import random

from repro.load import LoadConfig, OpenLoopDriver
from repro.obs import Observability, use_obs
from repro.services.mail.spec import DEFAULT_USERS
from repro.services.mail.workload import open_loop_mail_ops
from repro.sim import FlashCrowdProcess, PoissonProcess
from repro.smock import RetryPolicy
from repro.smock.overload import BUCKET_BURST, BUCKET_RATE_PER_S
from repro.smock.proxy import BACKOFF_BASE_MS, BACKOFF_CAP_MS, BACKOFF_FACTOR, JITTER


class TestBackoffShape:
    def test_exponential_growth_without_jitter(self):
        """With its seeded jitter draw taken out, each delay doubles
        from 50 ms: it is exactly its base times that draw."""
        p = RetryPolicy(seed=3)
        rng = random.Random(3)
        bases = [50.0, 100.0, 200.0, 400.0, 800.0]
        assert [p.backoff_ms(a) for a in range(1, 6)] == [
            base * (1.0 + JITTER * rng.random()) for base in bases
        ]

    def test_backoff_caps(self):
        p = RetryPolicy()
        for _ in range(20):
            assert BACKOFF_CAP_MS <= p.backoff_ms(10) <= BACKOFF_CAP_MS * (1.0 + JITTER)

    def test_jitter_bounds(self):
        p = RetryPolicy(seed=3)
        for attempt in range(1, 5):
            base = min(
                BACKOFF_BASE_MS * (BACKOFF_FACTOR ** (attempt - 1)), BACKOFF_CAP_MS
            )
            for _ in range(20):
                d = p.backoff_ms(attempt)
                assert base <= d <= base * 1.5

    def test_jitter_is_seeded(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert [a.backoff_ms(1) for _ in range(10)] == [
            b.backoff_ms(1) for _ in range(10)
        ]

    def test_retry_after_floors_the_delay(self):
        """A saturated server's hint dominates a small early backoff,
        with the hint's own jitter spreading the re-converging crowd."""
        p = RetryPolicy(seed=1)
        for _ in range(50):
            d = p.retry_delay_ms(1, retry_after_ms=500.0)
            assert 500.0 <= d <= 500.0 * 1.5

    def test_large_backoff_beats_small_hint(self):
        """Attempt 6 backs off at least 1.6 s, a 50 ms hint at most
        75 ms: the delay is the backoff's own (first) draw."""
        p, twin = RetryPolicy(seed=2), RetryPolicy(seed=2)
        assert p.retry_delay_ms(6, retry_after_ms=50.0) == twin.backoff_ms(6)

    def test_no_hint_means_pure_backoff(self):
        p, twin = RetryPolicy(seed=4), RetryPolicy(seed=4)
        assert p.retry_delay_ms(2, None) == twin.backoff_ms(2)
        assert p._rng.random() == twin._rng.random()  # no extra draw


def _run_cell(arrival, config, retry_policy, clients=3, node_cpu=100.0):
    """Small protected load cell that keeps runtime internals for
    inspection.

    Mirrors run_load_cell but returns (runtime, proxies, result) so the
    tests below can read the overload manager and the mail store.
    """
    from repro.experiments.mail_setup import build_mail_testbed

    obs = Observability(tracing=False, metrics=True)
    with use_obs(obs):
        testbed = build_mail_testbed(
            clients_per_site=clients,
            node_cpu=node_cpu,
            flush_policy="never",
            users=DEFAULT_USERS,
            overload_protection=True,
        )
        runtime = testbed.runtime
        proxies = []
        for i, node in enumerate(testbed.client_nodes("sandiego")[:clients]):
            user = DEFAULT_USERS[i % len(DEFAULT_USERS)]
            proxy = runtime.run(
                runtime.client_connect(node, {"User": user}), f"connect:{user}"
            )
            proxy.retry_policy = RetryPolicy(
                timeout_ms=retry_policy.timeout_ms,
                max_retries=retry_policy.max_retries,
                seed=config.seed + i,
            )
            proxies.append(proxy)
        driver = OpenLoopDriver(proxies, arrival, config, open_loop_mail_ops())
        result = driver.run()
    return runtime, proxies, result


class TestBucketBoundsRetries:
    def test_wire_attempts_capped_by_bucket_budget(self):
        """Initial sends and retries alike draw tokens, so the traffic
        that actually reaches the wire can never exceed the bucket's
        refill budget no matter how hard the retry storm pushes."""
        rate, burst = BUCKET_RATE_PER_S, BUCKET_BURST
        config = LoadConfig(
            duration_ms=1_000.0, drain_ms=20_000.0, n_users=200, seed=5
        )
        runtime, proxies, result = _run_cell(
            # offered ~400/s from one client node: twice its bucket
            # rate, so the bucket must bite
            PoissonProcess(400.0, seed=5),
            config,
            RetryPolicy(timeout_ms=2_000.0, max_retries=4),
            clients=1,
            node_cpu=None,
        )
        stats = runtime.overload.stats
        assert stats.throttled > 0  # the storm actually hit the gate
        attempts = result.offered + sum(p.retries for p in proxies)
        local_rejects = stats.throttled + stats.breaker_fast_fails
        wire = attempts - local_rejects
        n_nodes = len({p.client_node for p in proxies})
        # Refill keeps flowing while retry chains drain past the offered
        # window; bound by the full simulated span, not just duration.
        span_s = runtime.sim.now / 1_000.0
        budget = n_nodes * (burst + rate * span_s)
        assert wire <= budget + n_nodes  # +1 in-flight token per node

    def test_throttled_attempts_cost_no_simulated_work(self):
        """A throttled attempt is a local fast-fail: proxies report
        throttles but the server-side shed counter stays untouched (the
        full-speed server never queues to the admission bound)."""
        config = LoadConfig(
            duration_ms=1_000.0, drain_ms=10_000.0, n_users=200, seed=9
        )
        runtime, proxies, result = _run_cell(
            PoissonProcess(400.0, seed=9), config,
            RetryPolicy(timeout_ms=2_000.0, max_retries=2),
            clients=1,
            node_cpu=None,
        )
        stats = runtime.overload.stats
        assert stats.throttled > 0
        assert stats.shed == 0
        assert sum(p.throttled for p in proxies) == stats.throttled


class TestShedThenRetryDedupe:
    def test_acked_sends_store_exactly_once(self):
        """Shed-then-retried sends reuse one idempotency key, so the
        primary stores each acked send exactly once even though the
        flash crowd forced retries and sheds along the way."""
        config = LoadConfig(
            duration_ms=10_000.0, drain_ms=30_000.0, n_users=500, seed=13
        )
        runtime, proxies, result = _run_cell(
            FlashCrowdProcess(
                40.0, 300.0, at_ms=2_000.0, ramp_ms=1_000.0,
                hold_ms=5_000.0, decay_ms=1_000.0, seed=13,
            ),
            config,
            RetryPolicy(timeout_ms=4_000.0, max_retries=6),
        )
        # The scenario exercised the machinery it claims to test:
        retries = sum(p.retries for p in proxies)
        assert retries > 0
        assert runtime.overload.stats.shed + runtime.overload.stats.throttled > 0
        # Zero timeouts => every ok response was a real server ack (an
        # abandoned attempt could otherwise store without an ack, which
        # is the at-least-once slack, not a dedupe failure).
        assert sum(p.timeouts for p in proxies) == 0
        ok_sends = result.ops_ok.get("send_mail", 0)
        assert ok_sends > 0
        # flush_policy="never" means no batches propagate copies, so
        # each send lives at exactly one store (the accepting replica,
        # or the primary for above-trust forwards): the system-wide
        # store count equals acked sends iff dedupe worked.
        stored = sum(
            inst.store.messages_stored
            for inst in runtime.instances.values()
            if getattr(inst, "store", None) is not None
        )
        assert stored == ok_sends

    def test_dedupe_holds_deterministically(self):
        """Same seed, same storm, same store count — the dedupe path is
        on the deterministic hot path, not a best-effort cache."""
        counts = []
        for _ in range(2):
            config = LoadConfig(
                duration_ms=6_000.0, drain_ms=20_000.0, n_users=300, seed=17
            )
            runtime, proxies, result = _run_cell(
                FlashCrowdProcess(
                    40.0, 250.0, at_ms=1_500.0, ramp_ms=500.0,
                    hold_ms=3_000.0, decay_ms=1_000.0, seed=17,
                ),
                config,
                RetryPolicy(timeout_ms=4_000.0, max_retries=5),
            )
            stored = sum(
                inst.store.messages_stored
                for inst in runtime.instances.values()
                if getattr(inst, "store", None) is not None
            )
            counts.append((stored, result.ok, runtime.sim.now))
        assert counts[0] == counts[1]
