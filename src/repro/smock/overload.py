"""Overload protection: admission control, throttling, circuit breaking.

The open-loop load layer (:mod:`repro.load`) can offer more work than a
deployment can serve; without protection the runtime queues forever —
latencies blow past client timeouts, retries amplify the offered load,
and goodput collapses even though the servers are running flat out on
work nobody is waiting for anymore.  This module is the server-side
counterweight, three mechanisms behind one runtime switch
(``SmockRuntime(overload_protection=True)``), each tuned by the module
constants below:

- **Admission control** (queue-based load leveling): every component
  serve checks its host node's CPU accept queue against a bound *before*
  charging CPU.  Past the bound the request is shed with a cheap
  retryable failure carrying ``retry_after_ms``, so the queue — and
  therefore served latency — stays bounded while excess demand is
  deferred instead of buffered.
- **Per-client token buckets**: each client node's proxy draws a token
  per attempt (initial sends *and* retries), with deterministic lazy
  refill computed from elapsed simulated time — no refill events exist,
  so a disabled runtime is byte-identical.  An empty bucket fails the
  attempt locally with the time-to-next-token as ``retry_after_ms``,
  which caps what any one client (including its retry storm) can offer.
- **Circuit breaker** (closed/open/half-open) per proxy: a rolling
  windowed error/timeout rate trips the breaker open, fast-failing
  requests client-side for a cooldown instead of feeding a struggling
  backend; a half-open probe budget then tests recovery before closing.
  Backpressure responses (shed/throttled, i.e. ``retry_after_ms`` set)
  do *not* count as breaker failures — they are the protection working,
  not the service failing.

Everything is deterministic on the simulated clock: no RNG, no wall
time, no background processes.  ``overload_protection=False`` (the
default) constructs nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import SimNode, Simulator

__all__ = [
    "OverloadStats",
    "TokenBucket",
    "CircuitBreaker",
    "OverloadManager",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


# -- admission control (server side, per node) -------------------------------
#: shed when the host node's CPU accept queue is at least this deep
MAX_QUEUE = 32
#: Retry-After hint attached to shed responses (clients add jitter)
SHED_RETRY_AFTER_MS = 250.0

# -- per-client token bucket (client side, per client node) ------------------
BUCKET_RATE_PER_S = 200.0
BUCKET_BURST = 50.0

# -- circuit breaker (client side, per proxy) --------------------------------
BREAKER_WINDOW_MS = 4_000.0
BREAKER_BUCKETS = 8
#: trip when failures/requests over the window reaches this fraction
BREAKER_FAILURE_THRESHOLD = 0.5
#: ... but only once the window holds at least this many requests
BREAKER_MIN_REQUESTS = 10
BREAKER_COOLDOWN_MS = 1_000.0
#: successful trial requests required to close from half-open
BREAKER_HALF_OPEN_MAX = 3


@dataclass
class OverloadStats:
    """Aggregate protection activity (plain ints; metrics are optional)."""

    shed: int = 0
    throttled: int = 0
    breaker_fast_fails: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counter snapshot (keys match the metric names)."""
        return {
            "shed": self.shed,
            "throttled": self.throttled,
            "breaker_fast_fails": self.breaker_fast_fails,
        }


class TokenBucket:
    """Deterministic token bucket on the simulated clock.

    Refill is *lazy*: tokens owed since the last interaction are
    credited from ``now_ms`` on each call.  No simulator events are
    scheduled, so an idle bucket costs nothing and never perturbs the
    event sequence.
    """

    __slots__ = ("rate_per_s", "burst", "tokens", "_last_ms")

    def __init__(self, rate_per_s: float, burst: float, now_ms: float = 0.0) -> None:
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_ms = float(now_ms)

    def _refill(self, now_ms: float) -> None:
        elapsed = now_ms - self._last_ms
        if elapsed > 0:
            self.tokens = min(
                self.burst, self.tokens + elapsed * self.rate_per_s / 1000.0
            )
            self._last_ms = now_ms

    def try_take(self, now_ms: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; False leaves the bucket as-is."""
        self._refill(now_ms)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def wait_ms(self, now_ms: float, n: float = 1.0) -> float:
        """Simulated ms until ``n`` tokens will be available."""
        self._refill(now_ms)
        deficit = n - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate_per_s * 1000.0


class CircuitBreaker:
    """Three-state breaker over a rolling windowed failure rate.

    The window is :data:`BREAKER_BUCKETS` sub-windows of
    ``BREAKER_WINDOW_MS / BREAKER_BUCKETS`` ms each, advanced lazily on
    the simulated clock — counting a request ages out sub-windows older
    than the full window, so the observed rate always covers (at most)
    the last :data:`BREAKER_WINDOW_MS`.
    """

    __slots__ = (
        "state", "trips", "fast_fails",
        "_width_ms", "_counts", "_open_until_ms", "_probes", "_successes",
    )

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.trips = 0
        self.fast_fails = 0
        self._width_ms = BREAKER_WINDOW_MS / BREAKER_BUCKETS
        #: bucket index -> [requests, failures]
        self._counts: Dict[int, list] = {}
        self._open_until_ms = 0.0
        self._probes = 0
        self._successes = 0

    # -- window plumbing -----------------------------------------------------
    def _bucket(self, now_ms: float) -> list:
        idx = int(now_ms / self._width_ms)
        counts = self._counts
        cell = counts.get(idx)
        if cell is None:
            cell = counts[idx] = [0, 0]
            horizon = idx - BREAKER_BUCKETS
            for old in [i for i in counts if i <= horizon]:
                del counts[old]
        return cell

    def window_rates(self, now_ms: float) -> Tuple[int, int]:
        """(requests, failures) currently inside the rolling window."""
        horizon = int(now_ms / self._width_ms) - BREAKER_BUCKETS
        requests = failures = 0
        for idx, (req, fail) in self._counts.items():
            if idx > horizon:
                requests += req
                failures += fail
        return requests, failures

    # -- protocol ------------------------------------------------------------
    def allow(self, now_ms: float) -> Tuple[bool, float]:
        """May a request go to the wire now?  ``(allowed, retry_after_ms)``."""
        if self.state == BREAKER_CLOSED:
            return True, 0.0
        if self.state == BREAKER_OPEN:
            if now_ms < self._open_until_ms:
                self.fast_fails += 1
                return False, self._open_until_ms - now_ms
            self.state = BREAKER_HALF_OPEN
            self._probes = 0
            self._successes = 0
        # half-open: admit a bounded probe budget, fast-fail the rest
        if self._probes < BREAKER_HALF_OPEN_MAX:
            self._probes += 1
            return True, 0.0
        self.fast_fails += 1
        return False, BREAKER_COOLDOWN_MS

    def record(self, now_ms: float, ok: bool) -> None:
        """Count one finished attempt (``ok=False`` = error or timeout)."""
        if self.state == BREAKER_HALF_OPEN:
            if not ok:
                self._trip(now_ms)
            else:
                self._successes += 1
                if self._successes >= BREAKER_HALF_OPEN_MAX:
                    self._close()
            return
        if self.state == BREAKER_OPEN:
            # a late response from before the trip; the window is gone
            return
        cell = self._bucket(now_ms)
        cell[0] += 1
        if not ok:
            cell[1] += 1
            requests, failures = self.window_rates(now_ms)
            if (
                requests >= BREAKER_MIN_REQUESTS
                and failures / requests >= BREAKER_FAILURE_THRESHOLD
            ):
                self._trip(now_ms)

    def _trip(self, now_ms: float) -> None:
        self.state = BREAKER_OPEN
        self.trips += 1
        self._open_until_ms = now_ms + BREAKER_COOLDOWN_MS
        self._counts.clear()

    def _close(self) -> None:
        self.state = BREAKER_CLOSED
        self._counts.clear()


class OverloadManager:
    """Runtime-wide owner of the protection stack.

    Constructed only when ``SmockRuntime(overload_protection=True)``;
    ``runtime.overload is None`` is the single check every hot path
    performs when the feature is off.
    """

    def __init__(self, sim: "Simulator", metrics: Any = None) -> None:
        self.sim = sim
        self.stats = OverloadStats()
        self._buckets: Dict[str, TokenBucket] = {}
        self._breakers: list = []
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        #: (metric name, node) -> counter handle, resolved on first use
        #: (the engine.Simulator pattern): these fire once per attempt
        self._counters: Dict[Tuple[str, str], Any] = {}

    # -- factories (called at proxy bind time) -------------------------------
    def bucket(self, client_node: str) -> TokenBucket:
        """The (shared) token bucket of one client node."""
        bucket = self._buckets.get(client_node)
        if bucket is None:
            bucket = self._buckets[client_node] = TokenBucket(
                BUCKET_RATE_PER_S, BUCKET_BURST, now_ms=self.sim.now
            )
        return bucket

    def breaker(self) -> CircuitBreaker:
        """A fresh per-proxy circuit breaker."""
        breaker = CircuitBreaker()
        self._breakers.append(breaker)
        return breaker

    # -- server-side admission ----------------------------------------------
    def admit(self, node: "SimNode") -> Optional[float]:
        """Bounded-accept-queue check, *before* the CPU charge.

        Returns None to admit, or a ``retry_after_ms`` hint when the
        node's run queue is at the bound and the request must be shed.
        """
        if node.cpu.queue_length < MAX_QUEUE:
            return None
        self.stats.shed += 1
        self._count("overload.shed", "node", node.name)
        return SHED_RETRY_AFTER_MS

    def _count(self, name: str, label: str, node: str) -> None:
        """Increment ``name{label=node}`` when metrics are on."""
        if self._metrics is None:
            return
        counter = self._counters.get((name, node))
        if counter is None:
            counter = self._counters[(name, node)] = self._metrics.counter(
                name, **{label: node}
            )
        counter.inc()

    # -- client-side accounting ----------------------------------------------
    def note_throttled(self, client_node: str) -> None:
        """Count one client-side rate-limiter delay (caller still sends)."""
        self.stats.throttled += 1
        self._count("overload.throttled", "client_node", client_node)

    def note_fast_fail(self, client_node: str) -> None:
        """Count one request rejected locally by an open circuit breaker."""
        self.stats.breaker_fast_fails += 1
        self._count("overload.breaker_fast_fails", "client_node", client_node)

    @property
    def breaker_trips(self) -> int:
        return sum(b.trips for b in self._breakers)

    def snapshot(self) -> Dict[str, int]:
        """Protection activity summary (for CLI tables and artifacts)."""
        out = self.stats.as_dict()
        out["breaker_trips"] = self.breaker_trips
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OverloadManager shed={self.stats.shed} "
            f"throttled={self.stats.throttled} trips={self.breaker_trips}>"
        )
