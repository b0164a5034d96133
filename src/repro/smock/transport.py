"""Multi-hop message delivery over the materialized network.

The planner reasons about :class:`~repro.network.PathInfo` analytically;
at run time, messages actually traverse the simulated links hop by hop
(store-and-forward), queueing behind concurrent transfers on each hop —
this is where bandwidth contention between request traffic and coherence
propagation emerges in the Figure 7 experiments.

Fault semantics: each store-and-forward hop checks that the node doing
the forwarding is alive (a crashed router holds no message queues — the
message is simply gone), and an installed :class:`FaultHook` can drop or
delay individual messages, modeling lossy links.  A dropped message
hangs its delivery generator forever — silent loss, exactly what a
client-side timeout exists to bound.

Hot path: steady-state traffic repeats the same (src, dst) pairs
millions of times, so the transport *compiles* each pair once into a
flat hop schedule (:class:`CompiledRoute`: transmit resource,
serialization divisor, latency, arrival node and the hop's endpoint
names) and :meth:`RuntimeTransport.deliver` replays it with zero
lookups and a single generator frame.  Compiled routes are dropped
when :attr:`Network.structure_version` moves (link add/remove, liveness
flip, ``touch()``) — exactly the events that can change
``Network.path`` or a hop's attributes; a capacity reservation moves
only :attr:`Network.version`, and a compiled hop reads nothing it
changes.  There is one walk: an installed
:class:`FaultHook` is consulted on each hop of it, and an attached
telemetry sampler has it keep per-link in-flight bytes; neither changes
which events the walk yields or when.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..network import Network
from ..sim import LinkDownError, NodeDownError, SimLink, SimNode, Simulator, Timeout
from ..sim.resources import Monitor

__all__ = ["RuntimeTransport", "FaultHook", "CompiledRoute"]


def _key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class FaultHook:
    """Per-message fault decisions consulted by the transport.

    Subclasses (see :class:`repro.faults.FaultInjector`) override
    :meth:`on_hop`, returning ``"drop"`` to lose the message on that
    hop, a positive float to add that many ms of delay, or ``None`` to
    leave it alone; and :meth:`on_message`, returning message-level
    verdicts applied once per request at the RPC boundary
    (:meth:`repro.smock.component.ServerStub.request`): ``"duplicate"``
    re-delivers the request, ``"corrupt"`` garbles it so the receiver
    rejects it, and ``("reorder", hold_ms)`` holds it back so later
    traffic overtakes it.
    """

    def on_hop(
        self, src: str, dst: str, hop_a: str, hop_b: str, size_bytes: int
    ) -> Optional[Any]:
        return None

    def on_message(self, src: str, dst: str, size_bytes: int) -> Tuple[Any, ...]:
        return ()


class CompiledRoute:
    """One (src, dst) pair flattened into a per-hop schedule.

    Each entry of :attr:`hops` pre-resolves everything the delivery walk
    needs: ``(link, tx, bw_bps, latency_ms, arrival_node, hop_a, hop_b)``
    where ``tx`` is the transmit :class:`~repro.sim.resources.Resource`
    for the traversal direction and ``bw_bps`` is ``bandwidth_mbps * 1e6``
    (zero for infinitely fast links) — the exact intermediate
    :meth:`SimLink.serialization_ms` computes, so a replayed transfer
    takes bit-for-bit the time :meth:`SimLink.transfer` would; ``hop_a``
    and ``hop_b`` name the hop for :meth:`FaultHook.on_hop`.
    """

    __slots__ = ("src", "dst", "hops")

    def __init__(self, src: str, dst: str, hops: Tuple[Tuple, ...]) -> None:
        self.src = src
        self.dst = dst
        self.hops = hops


class RuntimeTransport:
    """Owns the live SimNodes/SimLinks mirroring a :class:`Network`."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.nodes, self.links = network.materialize(sim)
        self.stats = Monitor("transport")
        self.messages_sent = 0
        self.bytes_sent = 0
        #: optional fault hook, consulted on every hop of a delivery
        self.fault_hook: Optional[FaultHook] = None
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_corrupted = 0
        self.messages_reordered = 0
        self._routes: Dict[Tuple[str, str], CompiledRoute] = {}
        #: network.structure_version the compiled cache was built
        #: against; any route or hop-attribute change strands this epoch.
        self._routes_version = network.structure_version
        #: bytes currently traversing each link (both directions);
        #: ``None`` until a TelemetrySampler attaching to the runtime
        #: calls :meth:`enable_telemetry`.  Pure Python accounting,
        #: never schedules or reorders events.
        self.link_inflight: Optional[Dict[str, int]] = None
        # Metric handles resolved once (the engine.Simulator pattern):
        # deliver() runs per message and must not pay registry lookups.
        metrics = sim.obs.metrics
        if metrics.enabled:
            self._m_compiled = metrics.counter("transport.routes_compiled")
            self._m_hits = metrics.counter("transport.route_cache_hits")
        else:
            self._m_compiled = None
            self._m_hits = None

    def enable_telemetry(self) -> None:
        """Have deliveries keep :attr:`link_inflight` from now on."""
        if self.link_inflight is None:
            self.link_inflight = {}

    def node(self, name: str) -> SimNode:
        return self.nodes[name]

    def link(self, a: str, b: str) -> SimLink:
        return self.links[_key(a, b)]

    # -- route compilation -------------------------------------------------
    def _compile(self, src: str, dst: str) -> CompiledRoute:
        """Flatten the current lowest-latency path into a hop schedule."""
        path = self.network.path(src, dst)
        hops: List[Tuple] = []
        cur = src
        for hop in path.hops:
            link = self.links[_key(hop.a, hop.b)]
            tx = link._tx[cur if cur in link._tx else link.a]
            bw_bps = link.bandwidth_mbps * 1e6 if link.bandwidth_mbps > 0 else 0.0
            nxt = link.other_end(cur)
            hops.append(
                (link, tx, bw_bps, link.latency_ms, self.nodes[nxt], hop.a, hop.b)
            )
            cur = nxt
        route = CompiledRoute(src, dst, tuple(hops))
        if self._m_compiled is not None:
            self._m_compiled.inc()
        return route

    def route(self, src: str, dst: str) -> CompiledRoute:
        """The compiled hop schedule for (src, dst), rebuilt whenever
        ``Network.structure_version`` moves."""
        if self._routes_version != self.network.structure_version:
            self._routes.clear()
            self._routes_version = self.network.structure_version
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._compile(src, dst)
        elif self._m_hits is not None:
            self._m_hits.inc()
        return route

    # -- delivery ----------------------------------------------------------
    def deliver(self, src: str, dst: str, size_bytes: int) -> Generator[Any, Any, None]:
        """Process generator: move ``size_bytes`` from ``src`` to ``dst``.

        Routes along the current lowest-latency path, store-and-forward
        per hop.  Same-node delivery is free (in-process call).  Raises
        :class:`NodeDownError` when a forwarding node or the destination
        is crashed at arrival time; a hook-dropped message never returns
        (silent loss — the caller's timeout is the only recourse).
        """
        if src == dst:
            return
        sim = self.sim
        hook = self.fault_hook
        inflight = self.link_inflight
        start = sim.now
        for link, tx, bw_bps, latency_ms, arrival, hop_a, hop_b in self.route(
            src, dst
        ).hops:
            if hook is not None:
                verdict = hook.on_hop(src, dst, hop_a, hop_b, size_bytes)
                if verdict == "drop":
                    self.messages_dropped += 1
                    yield sim.event()  # never triggers: message lost
                    return  # pragma: no cover - unreachable
                if verdict:
                    yield sim.timeout(float(verdict))
            # The body of SimLink.transfer, on the pre-resolved hop.
            if not link.up:
                raise LinkDownError(f"link {link.name} is partitioned")
            if inflight is not None:
                inflight[link.name] = inflight.get(link.name, 0) + size_bytes
            # Each event built and yielded only when the kernel would not
            # dispatch it next to this process anyway (Simulator.take_now,
            # Simulator.take_after).  One name for all three, so a
            # suspended frame keeps at most one dispatched event alive.
            try:
                ev = tx.request_in_place()
                if ev is not None:
                    yield ev
                try:
                    delay = (size_bytes * 8) / bw_bps * 1e3 if bw_bps else 0.0
                    if not sim.take_after(delay):
                        ev = Timeout(sim, delay)
                        yield ev
                finally:
                    tx.release()
                if not link.up:
                    raise LinkDownError(f"link {link.name} partitioned mid-transfer")
                if not sim.take_after(latency_ms):
                    ev = Timeout(sim, latency_ms)
                    yield ev
            finally:
                if inflight is not None:
                    inflight[link.name] -= size_bytes
            link.bytes_carried += size_bytes
            if not arrival.up:
                raise NodeDownError(
                    f"message {src} -> {dst} arrived at crashed node "
                    f"{arrival.name!r}"
                )
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self.stats.observe(sim.now - start)

    def round_trip(
        self, src: str, dst: str, request_bytes: int, response_bytes: int
    ) -> Generator[Any, Any, None]:
        """Request there, response back."""
        yield from self.deliver(src, dst, request_bytes)
        yield from self.deliver(dst, src, response_bytes)
