"""Heartbeat-based failure detection.

The paper's framework has no failure story; this detector supplies the
missing observation channel the §6 monitoring integration needs for
fail-stop faults.  A monitor process on the runtime's server node (its
*home*) pings every other host over the simulated network at a fixed
interval; ``miss_threshold`` consecutive missed heartbeats declare the
host dead.  Detection latency is therefore bounded by roughly
``miss_threshold × interval_ms`` plus ping round-trip time — the model
documented in DESIGN.md.

Detections are published two ways, both belief-layer only:

- :meth:`Network.set_node_up` flips the planner's believed liveness, so
  the next planning round excludes the host;
- a :class:`FailureEvent` (a ``ChangeEvent`` with ``kind="node"``,
  ``attribute="up"``) goes through :meth:`NetworkMonitor.report`, which
  dedupes and fans out to subscribers — the replan manager among them.

Recoveries (a restarted host answering pings again) flow through the
same path with ``new=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator

from ..network import NetworkError
from ..network.monitor import ChangeEvent, NetworkMonitor
from ..sim import FaultError

__all__ = ["FailureDetector", "FailureEvent", "HEARTBEAT_BYTES"]

#: on-the-wire size of one heartbeat ping or ack
HEARTBEAT_BYTES = 64


@dataclass(frozen=True)
class FailureEvent(ChangeEvent):
    """A liveness transition observed via heartbeats.

    ``new`` False = detected failure, True = detected recovery.
    ``detection_ms`` is the lag behind ground truth when the injector's
    crash instant is known (recoveries and false positives carry 0).
    """

    detection_ms: float = 0.0


class FailureDetector:
    """Pings hosts from the server node; declares them dead after misses."""

    def __init__(
        self,
        runtime: Any,
        monitor: NetworkMonitor,
        interval_ms: float = 250.0,
        miss_threshold: int = 3,
    ) -> None:
        if not interval_ms > 0:  # NaN too
            raise ValueError("interval_ms must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.runtime = runtime
        self.monitor = monitor
        self.interval_ms = interval_ms
        self.miss_threshold = miss_threshold
        self.home_node = runtime.server_node
        self._misses: Dict[str, int] = {}
        #: per-target ping timeouts, valid while ``network.structure_version``
        #: reads ``_timeouts_version`` (see :meth:`_timeout_for`)
        self._timeouts: Dict[str, float] = {}
        self._timeouts_version = -1
        self._running = False
        self.failures_detected = 0
        self.recoveries_detected = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.runtime.sim.process(self._heartbeat_loop(), name="failure-detector")

    def stop(self) -> None:
        self._running = False

    # -- the heartbeat loop -------------------------------------------------
    def _heartbeat_loop(self) -> Generator[Any, Any, None]:
        """Ping every host each round, all round trips in flight at once.

        The round blocks until the slowest ping resolves (answer or
        timeout), then results are accounted in deterministic (sorted)
        order — so a round's wall time is one ping timeout, not the sum
        over hosts, and the detection-latency bound is
        ``miss_threshold × (interval + ping timeout)``.
        """
        sim = self.runtime.sim
        # The live hosts are materialized once, with the transport, so
        # the targets and their process names are fixed for the run.
        targets = [
            (name, f"heartbeat:{name}", f"heartbeat-rtt:{name}")
            for name in sorted(self.runtime.transport.nodes)
            if name != self.home_node
        ]
        while self._running:
            yield sim.timeout(self.interval_ms)
            if not self._running:
                return
            pings = [
                sim.process(self._ping(name, rtt_name), name=ping_name)
                for name, ping_name, rtt_name in targets
            ]
            yield sim.all_of(pings)
            for (name, _ping_name, _rtt_name), ping in zip(targets, pings):
                self._account(name, bool(ping.value))

    def _timeout_for(self, name: str) -> float:
        """Per-target ping budget: generous multiple of the analytic RTT.

        A ping slower than this counts as missed (dropped heartbeats
        never return at all — the timeout is what bounds them).  Sized
        per target because a fixed value shorter than a target's round
        trip would declare every distant node dead.

        Kept per ``Network.structure_version``: the routes read here
        move only with it, and the network's own path cache lives
        exactly as long, so a skipped :meth:`Network.path` call is one
        that would only have read that cache — which pair fixes a route
        first does not change.
        """
        network = self.runtime.network
        timeouts = self._timeouts
        if self._timeouts_version != network.structure_version:
            timeouts.clear()
            self._timeouts_version = network.structure_version
        timeout = timeouts.get(name)
        if timeout is None:
            try:
                one_way = network.path(self.home_node, name).latency_ms
            except NetworkError:
                timeout = self.interval_ms  # no believed route: fail fast
            else:
                timeout = max(self.interval_ms, 3.0 * 2.0 * one_way + 50.0)
            timeouts[name] = timeout
        return timeout

    def _ping(self, name: str, rtt_name: str) -> Generator[Any, Any, bool]:
        """One heartbeat round trip, bounded by the ping timeout;
        ``rtt_name`` names the round trip's process."""
        sim = self.runtime.sim
        transport = self.runtime.transport
        rpc = sim.process(
            transport.round_trip(
                self.home_node, name, HEARTBEAT_BYTES, HEARTBEAT_BYTES
            ),
            name=rtt_name,
        )
        timeout = sim.timeout(self._timeout_for(name))
        try:
            yield sim.any_of([rpc, timeout])
        except (FaultError, NetworkError):
            return False  # unreachable or crashed: missed heartbeat
        return rpc.triggered and not rpc.failed

    def _account(self, name: str, ok: bool) -> None:
        network = self.runtime.network
        believed_up = network.node(name).up
        if ok:
            self._misses[name] = 0
            if not believed_up:
                self._declare(name, up=True)
            return
        misses = self._misses.get(name, 0) + 1
        self._misses[name] = misses
        if believed_up and misses >= self.miss_threshold:
            self._declare(name, up=False)

    def _declare(self, name: str, up: bool) -> None:
        sim = self.runtime.sim
        metrics = self.runtime.obs.metrics
        self.runtime.network.set_node_up(name, up)
        detection_ms = 0.0
        if not up:
            self.failures_detected += 1
            crashed_at = getattr(
                self.runtime.transport.node(name), "crashed_at_ms", None
            )
            if crashed_at is not None:
                detection_ms = sim.now - crashed_at
                metrics.observe("faults.detection_ms", detection_ms)
            metrics.inc("faults.failures_detected", 1, node=name)
        else:
            self.recoveries_detected += 1
            self._misses[name] = 0
            metrics.inc("faults.recoveries_detected", 1, node=name)
        self.monitor.report(
            FailureEvent(
                time_ms=sim.now,
                kind="node",
                subject=name,
                attribute="up",
                old=not up,
                new=up,
                detection_ms=detection_ms,
            )
        )
