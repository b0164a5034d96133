"""Generic and service-specific proxies (Figure 1).

The client downloads a :class:`GenericProxy` from the lookup service.
On first use the proxy forwards the access request (with credentials) to
the generic server, waits for planning + deployment, then "replaces
itself with a service-specific proxy before returning control to the
requesting application" — afterwards every operation goes straight to
the deployed root component with no framework indirection (which is why
the dynamic scenarios of Figure 7 track their static counterparts).

Robustness: a :class:`RetryPolicy` arms the proxy with per-request
timeouts and bounded retry (exponential backoff + jitter, seeded RNG).
Every attempt of one logical operation carries the same idempotency key
so stateful components deduplicate retries that raced a slow success.
With no policy (the default) a request is one stub call with no timer
and no extra process — fault tolerance costs nothing until enabled.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from ..sim.resources import Monitor
from .component import RuntimeComponent, ServerStub
from .lookup import ServiceRegistration
from .messages import ServiceRequest, ServiceResponse
from .server import ACCESS_REQUEST_BYTES, ACCESS_RESPONSE_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SmockRuntime

__all__ = ["GenericProxy", "ServiceProxy", "BindRecord", "RetryPolicy"]

_key_counter = itertools.count(1)


#: first retry's backoff; each further retry multiplies it by
#: :data:`BACKOFF_FACTOR`, up to :data:`BACKOFF_CAP_MS`
BACKOFF_BASE_MS = 50.0
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_MS = 2000.0
#: each delay is stretched by ``1 + JITTER * U[0, 1)`` from the seeded RNG
JITTER = 0.5


@dataclass
class RetryPolicy:
    """Client-side robustness knobs for one proxy.

    ``timeout_ms`` bounds each attempt (it rescues silently-dropped
    messages, whose delivery generators never return); retries back off
    exponentially from :data:`BACKOFF_BASE_MS` with multiplicative
    :data:`JITTER` drawn from an RNG seeded by ``seed``, so chaos runs
    stay reproducible.
    """

    timeout_ms: float = 2000.0
    max_retries: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timeout_ms) and self.timeout_ms > 0):
            raise ValueError(
                f"timeout_ms must be finite and positive, got {self.timeout_ms}"
            )
        if not self.max_retries >= 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        self._rng = random.Random(self.seed)

    def backoff_ms(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based)."""
        base = min(BACKOFF_BASE_MS * (BACKOFF_FACTOR ** (attempt - 1)), BACKOFF_CAP_MS)
        return base * (1.0 + JITTER * self._rng.random())

    def retry_delay_ms(self, attempt: int, retry_after_ms: Optional[float]) -> float:
        """Backoff for ``attempt``, floored by a Retry-After hint.

        The server's ``retry_after_ms`` backpressure hint makes the delay
        at least the hint, so a crowd of shed clients spreads out instead
        of re-converging on the still-saturated server at backoff-base
        speed.  The hint gets its own jitter draw — a thousand clients
        shed in the same millisecond must not all return exactly
        ``retry_after_ms`` later.  Runs without backpressure hints never
        reach the extra draw, so their RNG streams are unchanged.
        """
        delay = self.backoff_ms(attempt)
        if retry_after_ms:
            floor = retry_after_ms * (1.0 + JITTER * self._rng.random())
            delay = max(delay, floor)
        return delay


@dataclass
class BindRecord:
    """One-time binding costs as perceived by this client (§4.2)."""

    lookup_ms: float = 0.0
    access_round_trip_ms: float = 0.0
    planning_ms: float = 0.0
    deployment_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.lookup_ms
            + self.access_round_trip_ms
            + self.planning_ms
            + self.deployment_ms
        )


class ServiceProxy:
    """Direct binding to the deployed root component."""

    def __init__(
        self,
        runtime: "SmockRuntime",
        client_node: str,
        interface: str,
        root: RuntimeComponent,
        user: Optional[str] = None,
    ) -> None:
        self.runtime = runtime
        self.client_node = client_node
        self.interface = interface
        self.root = root
        self.user = user
        #: set after the bind to make :meth:`request` time out and retry
        self.retry_policy: Optional[RetryPolicy] = None
        self._stub = ServerStub(runtime, interface, client_node, root)
        self.latency = Monitor(f"proxy:{client_node}")
        #: logical operations issued (counted once, before any retries);
        #: survives rebinds — the autonomic manager derives per-binding
        #: offered request rates from deltas of this counter
        self.requests = 0
        self.retries = 0
        self.timeouts = 0
        self.throttled = 0
        # Overload protection, resolved once at bind time: the breaker
        # is per proxy, the token bucket is shared per client node.  Both
        # exist only when the runtime was built with overload_protection
        # on; otherwise both are None (zero hot-path work beyond this
        # attribute).
        overload = runtime.overload
        self._breaker = overload.breaker() if overload is not None else None
        self._bucket = (
            overload.bucket(client_node) if overload is not None else None
        )
        #: per-op histogram handles, resolved on first use (the
        #: engine.Simulator pattern) — only populated when metrics are on.
        self._op_hist: Dict[str, Any] = {}
        #: likewise the retry path's counters, by (name, op, outcome)
        self._op_counters: Dict[Tuple[str, str, Optional[str]], Any] = {}

    def rebind(self, root: RuntimeComponent) -> None:
        """Point this proxy at a new root instance (failover replanning).

        Updates both the recorded root *and* the live stub — a proxy
        whose stub still aims at the dead instance would keep failing
        after a nominally successful replan.
        """
        self.root = root
        self._stub = ServerStub(
            self.runtime, self.interface, self.client_node, root
        )

    def request(
        self,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        size_bytes: int = 512,
        user: Optional[str] = None,
    ) -> Generator[Any, Any, ServiceResponse]:
        """Process generator: one service operation, end to end.

        ``user`` overrides the bind-time identity for this one request —
        open-loop load drivers multiplex many simulated users over one
        bound proxy (binding 100k proxies would swamp the planner, and a
        real frontend pools connections the same way).
        """
        sim = self.runtime.sim
        obs = self.runtime.obs
        self.requests += 1
        start = sim.now
        # The null tracer's start_span/finish are not free at one call
        # per request, so the span exists only when someone records it.
        span = (
            obs.tracer.start_span("request", op=op, client_node=self.client_node)
            if obs.tracer.enabled
            else None
        )
        req = ServiceRequest(
            op=op, payload=dict(payload or {}), size_bytes=size_bytes,
            user=user if user is not None else self.user,
        )
        if self.retry_policy is not None:
            resp = yield from self._robust_request(req)
        elif self._breaker is not None:
            resp = yield from self._guarded_request(req)
        else:
            resp = yield from self._stub.request(req)
        elapsed = sim.now - start
        self.latency.observe(elapsed)
        if span is not None:
            span.finish(status=None if resp.ok else "error")
        metrics = obs.metrics
        if metrics.enabled:
            hist = self._op_hist.get(op)
            if hist is None:
                # Windowed so the telemetry sampler can rotate per-op
                # p50/p99/p999 into time series; cumulative summaries
                # are unchanged in shape.
                hist = self._op_hist[op] = metrics.windowed_histogram(
                    "smock.request_sim_ms", op=op
                )
            hist.observe(elapsed)
            if not resp.ok:
                metrics.inc("smock.request_errors", op=op)
        return resp

    def _local_reject(self, req: ServiceRequest) -> Optional[ServiceResponse]:
        """Token-bucket + circuit-breaker gate, applied per attempt.

        Returns a fast local failure (no wire traffic, no simulated
        time) when this attempt may not be sent: the client node's
        bucket is empty — initial sends and retries alike draw a token,
        so a retry storm can never offer more than the bucket rate — or
        this proxy's breaker is open.  None admits the attempt.
        """
        sim = self.runtime.sim
        bucket = self._bucket
        if bucket is not None and not bucket.try_take(sim.now):
            self.throttled += 1
            self.runtime.overload.note_throttled(self.client_node)
            return ServiceResponse.failure(
                f"throttled: {self.client_node} token bucket empty",
                retryable=True,
                retry_after_ms=bucket.wait_ms(sim.now),
            )
        breaker = self._breaker
        if breaker is not None:
            allowed, retry_after = breaker.allow(sim.now)
            if not allowed:
                self.runtime.overload.note_fast_fail(self.client_node)
                return ServiceResponse.failure(
                    f"circuit open: {self.client_node} -> {req.op} fast-failed",
                    retryable=True,
                    retry_after_ms=retry_after,
                )
        return None

    def _record_outcome(self, resp: ServiceResponse) -> None:
        """Feed the breaker one finished attempt.

        Backpressure responses (``retry_after_ms`` set: sheds and
        throttles) and non-retryable application rejections are *not*
        breaker failures — only infrastructure errors and timeouts
        count, per the error/timeout-rate tripping rule.
        """
        if self._breaker is not None:
            failed = (
                not resp.ok
                and resp.retryable
                and resp.retry_after_ms is None
            )
            self._breaker.record(self.runtime.sim.now, not failed)

    def _guarded_request(
        self, req: ServiceRequest
    ) -> Generator[Any, Any, ServiceResponse]:
        """Single-attempt path with overload protection, no retry policy."""
        reject = self._local_reject(req)
        if reject is not None:
            return reject
        resp = yield from self._stub.request(req)
        self._record_outcome(resp)
        return resp

    def _robust_request(
        self, req: ServiceRequest
    ) -> Generator[Any, Any, ServiceResponse]:
        """Timeout + bounded-retry wrapper around one logical operation.

        Each attempt races the RPC against a timeout; a late response
        from an abandoned attempt is discarded (its process keeps
        running but nobody reads the value).  All attempts share one
        idempotency key, so a retry that follows a
        response-lost-after-apply cannot double-apply.

        With overload protection on, every attempt (including the
        first) must clear the client token bucket and circuit breaker
        first; rejected attempts cost no wire traffic, and retry delays
        honor the server's Retry-After backpressure hints.
        """
        policy = self.retry_policy
        sim = self.runtime.sim
        req.idempotency_key = f"{self.client_node}:{next(_key_counter)}"
        attempts = policy.max_retries + 1
        resp: ServiceResponse = ServiceResponse.failure("unattempted")
        for attempt in range(1, attempts + 1):
            reject = self._local_reject(req)
            if reject is not None:
                resp = reject
            else:
                # Fresh request object per attempt: the stub mutates trace
                # and a re-sent message is a new message on the wire.
                attempt_req = ServiceRequest(
                    op=req.op,
                    payload=dict(req.payload),
                    size_bytes=req.size_bytes,
                    user=req.user,
                    trace=req.trace,
                    idempotency_key=req.idempotency_key,
                )
                rpc = sim.process(
                    self._stub.request(attempt_req),
                    name=f"rpc:{self.client_node}:{req.op}:{attempt}",
                )
                timeout = sim.timeout(policy.timeout_ms)
                # If the rpc process fails outright (a genuine bug — fault
                # errors are converted to failure responses in the stub),
                # the any_of fails and re-raises here.  A timed-out attempt
                # is simply abandoned: it may still complete, but nobody
                # reads its value.
                yield sim.any_of([rpc, timeout])
                if rpc.triggered:
                    resp = rpc.value
                    self._record_outcome(resp)
                    if resp.ok or not resp.retryable:
                        if attempt > 1:
                            self._count(
                                "smock.retries", attempt - 1, req.op,
                                "ok" if resp.ok else "failed",
                            )
                        return resp
                else:
                    self.timeouts += 1
                    self._count("smock.request_timeouts", 1, req.op)
                    if self._breaker is not None:
                        self._breaker.record(sim.now, False)
                    resp = ServiceResponse.failure(
                        f"timeout after {policy.timeout_ms:.0f}ms", retryable=True
                    )
            if attempt < attempts:
                self.retries += 1
                yield sim.timeout(
                    policy.retry_delay_ms(attempt, resp.retry_after_ms)
                )
        self._count("smock.retries", attempts - 1, req.op, "exhausted")
        return resp

    def _count(self, name: str, n: int, op: str, outcome: Optional[str] = None) -> None:
        """Add ``n`` to ``name{op[,outcome]}`` when metrics are on."""
        metrics = self.runtime.obs.metrics
        if not metrics.enabled:
            return
        key = (name, op, outcome)
        counter = self._op_counters.get(key)
        if counter is None:
            labels = {"op": op} if outcome is None else {"op": op, "outcome": outcome}
            counter = self._op_counters[key] = metrics.counter(name, **labels)
        counter.inc(n)


class GenericProxy:
    """The proxy downloaded from the lookup service.

    Binds lazily: the first :meth:`request` (or an explicit
    :meth:`bind`) performs Figure 1's steps 3-5 and swaps in the
    service-specific proxy.
    """

    def __init__(
        self,
        runtime: "SmockRuntime",
        registration: ServiceRegistration,
        client_node: str,
    ) -> None:
        self.runtime = runtime
        self.registration = registration
        self.client_node = client_node
        self.service_proxy: Optional[ServiceProxy] = None
        self.bind_record: Optional[BindRecord] = None

    @property
    def bound(self) -> bool:
        return self.service_proxy is not None

    def bind(
        self,
        context: Optional[Dict[str, Any]] = None,
        interface: Optional[str] = None,
        request_rate: float = 0.0,
        algorithm: Optional[str] = None,
        parent_span: Any = None,
    ) -> Generator[Any, Any, ServiceProxy]:
        """Process generator: contact the generic server, deploy, swap."""
        runtime = self.runtime
        sim = runtime.sim
        context = dict(context or {})
        bundle = runtime.bundle_for(self.registration.name)
        interface = interface or bundle.default_interface
        server = bundle.server
        span = runtime.obs.tracer.start_span(
            "bind",
            parent=parent_span,
            client_node=self.client_node,
            service=self.registration.name,
            interface=interface,
        )

        record = BindRecord()
        t0 = sim.now
        try:
            # Step 3: request + supporting credentials travel to the server.
            yield from runtime.transport.deliver(
                self.client_node, server.host_node, ACCESS_REQUEST_BYTES
            )
            access = yield from server.handle_access(
                self.client_node,
                context,
                interface,
                request_rate=request_rate,
                algorithm=algorithm,
                parent_span=span,
            )
            # The service-specific proxy (binding info) returns to the client.
            yield from runtime.transport.deliver(
                server.host_node, self.client_node, ACCESS_RESPONSE_BYTES
            )
        except BaseException as exc:
            span.finish(status="error", error=repr(exc))
            raise
        record.access_round_trip_ms = sim.now - t0 - access.total_ms
        record.planning_ms = access.planning_ms
        record.deployment_ms = access.deployment.total_ms
        span.finish(
            planning_ms=record.planning_ms, deployment_ms=record.deployment_ms
        )
        runtime.obs.metrics.observe(
            "smock.bind_sim_ms", sim.now - t0, service=self.registration.name
        )

        self.service_proxy = ServiceProxy(
            runtime,
            self.client_node,
            interface,
            access.deployment.root_instance,
            user=context.get("User"),
        )
        self.bind_record = record
        runtime.bind_records.append(record)
        return self.service_proxy

    def request(
        self,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        size_bytes: int = 512,
        context: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, ServiceResponse]:
        """Process generator: bind on first use, then delegate."""
        if self.service_proxy is None:
            yield from self.bind(context=context)
        assert self.service_proxy is not None
        resp = yield from self.service_proxy.request(op, payload, size_bytes)
        return resp
