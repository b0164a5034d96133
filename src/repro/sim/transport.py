"""Simulated network links: latency + bandwidth serialization.

This module stands in for the paper's Click-modular-router traffic
shaping.  A :class:`SimLink` delivers a payload of ``size_bytes`` after

    latency_ms + size_bytes * 8 / bandwidth_mbps / 1000

where the serialization term holds the link's transmit resource, so
concurrent transfers queue behind each other exactly like packets behind
a shaper.  Links are full-duplex: each direction has its own transmit
resource.
"""

from __future__ import annotations

import math
from typing import Any, Generator, Optional

from .engine import Simulator
from .events import Event, LinkDownError, Timeout
from .resources import Resource

__all__ = ["SimLink", "SimHalfLink", "transfer_time_ms"]


def transfer_time_ms(size_bytes: int, bandwidth_mbps: float, latency_ms: float) -> float:
    """Analytic one-way transfer time for a message, in milliseconds.

    ``bandwidth_mbps`` is in megabits/second (the unit of Figure 5);
    a non-positive bandwidth means "infinitely fast" (pure latency).
    """
    if size_bytes < 0:
        raise ValueError(f"negative message size: {size_bytes}")
    serialization = 0.0
    if bandwidth_mbps > 0:
        serialization = (size_bytes * 8) / (bandwidth_mbps * 1e6) * 1e3
    return latency_ms + serialization


def _check_link(latency_ms: float, bandwidth_mbps: float) -> None:
    """Refuse a negative or NaN latency and a NaN bandwidth."""
    if not latency_ms >= 0:  # also rejects NaN
        raise ValueError(f"latency_ms must be >= 0, got {latency_ms}")
    if math.isnan(bandwidth_mbps):
        raise ValueError("bandwidth_mbps must be a number, got nan")


class SimLink:
    """A bidirectional point-to-point link between two simulated nodes.

    Parameters mirror the paper's Figure 5 annotations: one-way latency
    in ms and bandwidth in Mb/s, plus the ``secure`` credential used by
    property-modification rules.
    """

    def __init__(
        self,
        sim: Simulator,
        a: str,
        b: str,
        latency_ms: float,
        bandwidth_mbps: float,
        secure: bool = True,
        name: Optional[str] = None,
    ) -> None:
        _check_link(latency_ms, bandwidth_mbps)
        self.sim = sim
        self.a = a
        self.b = b
        self.latency_ms = latency_ms
        self.bandwidth_mbps = bandwidth_mbps
        self.secure = secure
        self.name = name or f"{a}<->{b}"
        # One transmit queue per direction (full duplex).
        self._tx = {a: Resource(sim, 1), b: Resource(sim, 1)}
        self.bytes_carried = 0
        #: liveness flag: a partitioned link carries no new transfers.
        self.up = True

    def fail(self) -> None:
        """Partition the link: new transfers raise :class:`LinkDownError`."""
        self.up = False

    def heal(self) -> None:
        self.up = True

    def other_end(self, node: str) -> str:
        """The opposite endpoint; raises if ``node`` is not an endpoint."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of {self.name}")

    def serialization_ms(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire (no latency)."""
        if self.bandwidth_mbps <= 0:
            return 0.0
        return (size_bytes * 8) / (self.bandwidth_mbps * 1e6) * 1e3

    def transfer(
        self, src: str, size_bytes: int, payload: Any = None
    ) -> Generator[Event, Any, Any]:
        """Process generator: move ``payload`` from ``src`` to the far end.

        Queues behind earlier transfers in the same direction
        (bandwidth contention), then incurs propagation latency.
        Returns the payload so callers can ``yield from`` it.
        Raises :class:`LinkDownError` when the link is partitioned —
        checked at start and again after serialization, so a transfer
        caught mid-flight by a partition is lost, not delivered.
        """
        if not self.up:
            raise LinkDownError(f"link {self.name} is partitioned")
        tx = self._tx[src if src in self._tx else self.a]
        sim = self.sim
        yield tx.request()
        try:
            yield Timeout(sim, self.serialization_ms(size_bytes))
        finally:
            tx.release()
        if not self.up:
            raise LinkDownError(f"link {self.name} partitioned mid-transfer")
        yield Timeout(sim, self.latency_ms)
        self.bytes_carried += size_bytes
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sec = "secure" if self.secure else "insecure"
        return (
            f"<SimLink {self.name} {self.latency_ms}ms/"
            f"{self.bandwidth_mbps}Mbps {sec}>"
        )


class SimHalfLink:
    """The sender-side half of a link whose far end lives in another
    partition of a parallel run.

    Links are full-duplex, so each direction's transmit queue is owned
    entirely by its *sending* endpoint — nothing about serialization is
    shared state.  The parallel kernel therefore models a cut link as
    two independent half-links: the sender holds the transmit resource
    and pays serialization locally, and the propagation latency is
    stamped into the cross-partition message's delivery time.  Because
    that latency is exactly the channel's lookahead, every delivery
    lands at or beyond the receiver's guaranteed horizon.
    """

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        latency_ms: float,
        bandwidth_mbps: float,
        name: Optional[str] = None,
    ) -> None:
        _check_link(latency_ms, bandwidth_mbps)
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency_ms = latency_ms
        self.bandwidth_mbps = bandwidth_mbps
        self.name = name or f"{src}->{dst}"
        self._tx = Resource(sim, 1)
        self.bytes_carried = 0

    def serialization_ms(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire (no latency)."""
        if self.bandwidth_mbps <= 0:
            return 0.0
        return (size_bytes * 8) / (self.bandwidth_mbps * 1e6) * 1e3

    def transmit(self, size_bytes: int) -> Generator[Event, Any, None]:
        """Process generator: serialize onto the wire behind earlier
        sends in this direction.  On return the payload is "in flight";
        the caller posts it to the far partition with delivery time
        ``sim.now + latency_ms``."""
        yield self._tx.request()
        try:
            yield Timeout(self.sim, self.serialization_ms(size_bytes))
        finally:
            self._tx.release()
        self.bytes_carried += size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimHalfLink {self.name} {self.latency_ms}ms/"
            f"{self.bandwidth_mbps}Mbps>"
        )
