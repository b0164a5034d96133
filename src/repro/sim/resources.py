"""Shared-resource primitives: FIFO resources and latency monitors.

``Resource`` models a server with ``capacity`` concurrent slots (a node's
CPU, a link's transmit side).  It integrates with the event kernel so
processes simply ``yield`` on acquisition.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from .engine import Simulator
from .events import Event

__all__ = ["Resource", "Monitor"]


class Resource:
    """A FIFO resource with a fixed number of concurrent slots.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters", "_busy_area", "_last_change")

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Aggregate utilization accounting.
        self._busy_area = 0.0
        self._last_change = sim.now

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_area(self) -> float:
        """Cumulative busy integral in slot-ms, settled to the current
        sim time.  Deltas of this between two instants give per-interval
        utilization (the telemetry sampler's probe)."""
        self._account()
        return self._busy_area

    def request(self) -> Event:
        """Event that triggers when a slot is granted to the caller."""
        sim = self.sim
        ev = Event(sim)
        in_use = self._in_use
        if in_use < self.capacity:
            # _account() inlined, here and in release(): a slot changes
            # hands twice per CPU job and per link hop.
            now = sim._now
            self._busy_area += in_use * (now - self._last_change)
            self._last_change = now
            self._in_use = in_use + 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def request_in_place(self) -> Optional[Event]:
        """:meth:`request`, or ``None`` when the slot is free and the
        kernel dispatched its grant in place (:meth:`Simulator.take_now`):
        the caller holds the slot and carries on without yielding."""
        in_use = self._in_use
        if in_use < self.capacity and self.sim.take_now():
            # The grant branch of request(), with no event to succeed.
            now = self.sim._now
            self._busy_area += in_use * (now - self._last_change)
            self._last_change = now
            self._in_use = in_use + 1
            return None
        return self.request()

    def release(self) -> None:
        """Return a slot; wakes the head-of-line waiter if any."""
        in_use = self._in_use
        if in_use <= 0:
            raise RuntimeError("release() without matching request()")
        if self._waiters:
            # Hand the slot straight to the next waiter (in_use unchanged).
            self._waiters.popleft().succeed(self)
        else:
            now = self.sim._now
            self._busy_area += in_use * (now - self._last_change)
            self._last_change = now
            self._in_use = in_use - 1

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Acquire a slot, hold it for ``duration`` ms, release it."""
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class Monitor:
    """Accumulates scalar observations (latencies, sizes) with summary stats.

    Lightweight replacement for pulling in a stats package in the hot
    path: constant-time ``observe`` and O(n log n) percentile queries.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) by nearest-rank."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Monitor {self.name!r} n={self.count} mean={self.mean:.3f} "
            f"min={self.minimum:.3f} max={self.maximum:.3f}>"
        )
