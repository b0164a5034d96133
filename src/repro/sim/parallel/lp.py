"""Logical processes: one partition, one ordinary :class:`Simulator`.

A :class:`LogicalProcess` wraps the existing sequential kernel — fast
path, event heap, resources, all of it unchanged — and adds only the
conservative synchronization state around it:

- per in-channel **guarantees** (largest sender clock seen, from real
  messages and :class:`~repro.sim.parallel.channel.Advert` nulls),
- the **safe horizon** ``min(guarantee + lookahead)`` bounding how far
  ``advance()`` may run,
- an **ingress heap** of not-yet-injected remote messages, merged into
  the kernel heap under the sender's ``(origin, seq)`` key so the
  execution order is a property of the *plan*, never of OS scheduling.

Programs see a :class:`PartitionContext`: the materialized sub-topology
plus ``send_remote`` / ``on_message`` primitives that route traffic
through sender-side half-links and the timestamped channels.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ...network.topology import _link_key
from ...obs import NULL_OBS
from ..engine import Simulator
from ..events import Event, Injected, SimulationError
from ..transport import SimHalfLink
from .channel import Advert, RemoteMessage
from .partition import PartitionPlan

__all__ = ["LogicalProcess", "PartitionContext"]


class PartitionContext:
    """What a partition program is handed: its slice of the world.

    ``nodes``/``links`` are live simulation objects for this partition
    only; ``plan`` and ``full_network`` expose the global (static)
    structure for routing decisions.  All cross-partition communication
    goes through :meth:`send_remote`, which serializes on the local
    half-link and posts a timestamped message into the destination
    channel.
    """

    def __init__(self, lp: "LogicalProcess", subnetwork: Any) -> None:
        self._lp = lp
        self.sim: Simulator = lp.sim
        self.rank: int = lp.rank
        self.plan: PartitionPlan = lp.plan
        self.partition = lp.plan.partitions[lp.rank]
        self.network = subnetwork
        self.full_network = lp.full_network
        self.nodes, self.links = subnetwork.materialize(lp.sim)
        self.local_nodes: Tuple[str, ...] = self.partition.nodes
        self.remote_nodes: Tuple[str, ...] = tuple(
            sorted(set(lp.full_network.node_names()) - set(self.partition.nodes))
        )
        #: sender-side halves of this partition's outgoing cut links.
        self.half_links: Dict[Tuple[str, str], SimHalfLink] = {
            (cut.src, cut.dst): SimHalfLink(
                lp.sim, cut.src, cut.dst, cut.latency_ms, cut.bandwidth_mbps
            )
            for cut in lp.plan.cut_links_from(lp.rank)
        }
        self._handlers: Dict[str, Callable[["PartitionContext", RemoteMessage], None]] = {}
        #: program-level counters; merged into the run signature.
        self.stats: Dict[str, float] = {}
        #: end-to-end latency samples, in execution order (deterministic).
        self.latencies_ms: List[float] = []

    # -- program surface -------------------------------------------------
    def is_local(self, node: str) -> bool:
        return self.plan.rank_of[node] == self.rank

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None):
        return self.sim.process(generator, name=name)

    def on_message(
        self, kind: str, handler: Callable[["PartitionContext", RemoteMessage], None]
    ) -> None:
        """Register ``handler(ctx, msg)`` for ingress messages of ``kind``."""
        self._handlers[kind] = handler

    def count(self, key: str, n: float = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n

    def record_latency(self, ms: float) -> None:
        self.latencies_ms.append(ms)

    def transfer_local(
        self, src: str, dst: str, size_bytes: int
    ) -> Generator[Event, Any, None]:
        """Process generator: hop-by-hop transfer entirely inside this
        partition (both endpoints local)."""
        path = self.network.path(src, dst)
        cur = src
        for hop in path.hops:
            link = self.links[_link_key(hop.a, hop.b)]
            yield from link.transfer(cur, size_bytes)
            cur = hop.b if cur == hop.a else hop.a

    def send_remote(
        self, src: str, dest: str, size_bytes: int, kind: str, payload: Any
    ) -> Generator[Event, Any, None]:
        """Process generator: carry ``payload`` from local ``src`` toward
        remote ``dest``.

        Local hops to the boundary run on ordinary links; the cut hop
        serializes on this side's half-link, then the message is posted
        into the channel with delivery time ``now + latency``.  When
        ``dest`` is beyond the neighbor partition the message enters at
        the boundary node and the receiving program relays it onward
        (hop-by-hop, exactly how the gateways forward site traffic).
        """
        exit_node, entry_node, dst_rank = self._remote_route(src, dest)
        if exit_node != src:
            yield from self.transfer_local(src, exit_node, size_bytes)
        half = self.half_links[(exit_node, entry_node)]
        yield from half.transmit(size_bytes)
        self._lp.post(
            dst_rank,
            when=self.sim.now + half.latency_ms,
            dest=dest,
            via=entry_node,
            kind=kind,
            payload=payload,
            size=size_bytes,
        )

    def _remote_route(self, src: str, dest: str) -> Tuple[str, str, int]:
        """``(exit_node, entry_node, next_rank)`` for the first partition
        boundary on the lowest-latency path from ``src`` to ``dest``."""
        path = self.full_network.path(src, dest)
        cur = src
        for hop in path.hops:
            nxt = hop.b if cur == hop.a else hop.a
            if self.plan.rank_of[nxt] != self.rank:
                return cur, nxt, self.plan.rank_of[nxt]
            cur = nxt
        raise SimulationError(f"{dest!r} is local to partition {self.rank}; "
                              "use transfer_local")

    # -- ingress dispatch -------------------------------------------------
    def _dispatch(self, msg: RemoteMessage) -> None:
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise SimulationError(
                f"partition {self.rank} has no handler for message kind "
                f"{msg.kind!r} (register one with on_message)"
            )
        handler(self, msg)

    def stats_snapshot(self) -> Dict[str, Any]:
        return {
            "counters": {k: self.stats[k] for k in sorted(self.stats)},
            "latencies_ms": list(self.latencies_ms),
        }


class LogicalProcess:
    """One partition's simulator plus its conservative sync state."""

    def __init__(
        self,
        plan: PartitionPlan,
        rank: int,
        network: Any,
        program: Callable[[PartitionContext, Any], None],
        config: Any,
        until: float,
    ) -> None:
        self.plan = plan
        self.rank = rank
        self.until = float(until)
        self.full_network = network
        # NULL_OBS keeps every worker on the fast-path dispatch loop;
        # parallel runs are about throughput, not tracing.
        self.sim = Simulator(obs=NULL_OBS, origin=rank)
        #: largest sender clock seen per in-channel (messages + adverts).
        self._guarantee: Dict[int, float] = {
            p: 0.0 for p in plan.in_neighbors(rank)
        }
        #: remote messages received but not yet merged into the kernel heap.
        self._ingress: List[Tuple[float, int, int, RemoteMessage]] = []
        self._outgoing: List[Tuple[int, RemoteMessage]] = []
        self._msg_seq = 0
        self._msgs_in = 0
        self._last_advert = float("-inf")
        self.ctx = PartitionContext(self, plan.subnetwork(network, rank))
        program(self.ctx, config)

    # -- channel ingress --------------------------------------------------
    def observe_message(self, msg: RemoteMessage) -> None:
        g = self._guarantee.get(msg.origin, 0.0)
        if msg.clock > g:
            self._guarantee[msg.origin] = msg.clock
        heapq.heappush(self._ingress, (msg.when, msg.origin, msg.seq, msg))
        self._msgs_in += 1

    def observe_advert(self, advert: Advert) -> None:
        if advert.clock > self._guarantee.get(advert.origin, 0.0):
            self._guarantee[advert.origin] = advert.clock

    # -- channel egress ---------------------------------------------------
    def post(
        self,
        dst_rank: int,
        when: float,
        dest: str,
        via: str,
        kind: str,
        payload: Any,
        size: int,
    ) -> None:
        self._msg_seq += 1
        self._outgoing.append(
            (
                dst_rank,
                RemoteMessage(
                    when, self.rank, self._msg_seq, dest, via, kind,
                    payload, self.sim.now, size,
                ),
            )
        )

    def take_outgoing(self) -> List[Tuple[int, RemoteMessage]]:
        out, self._outgoing = self._outgoing, []
        return out

    # -- conservative horizon ---------------------------------------------
    def _channel_bound(self) -> float:
        """Unclamped safe horizon from the in-channel guarantees."""
        if not self._guarantee:
            return float("inf")
        look = self.plan.lookahead_ms
        return min(
            clock + look[(p, self.rank)] for p, clock in self._guarantee.items()
        )

    def horizon(self) -> float:
        return min(self._channel_bound(), self.until)

    def advance(self) -> bool:
        """Inject safe ingress and run the kernel up to the horizon.

        Returns True when anything moved (clock, events, or injections)
        so the driver can detect quiescence.
        """
        bound = self.horizon()
        before = (self.sim.now, self.sim.events_scheduled, len(self._ingress))
        while self._ingress and self._ingress[0][0] < bound:
            when, origin, seq, msg = heapq.heappop(self._ingress)
            ev = Injected(self.sim, msg)
            ev.add_callback(self._deliver)
            self.sim.schedule_external(when, origin, seq, ev)
        if bound > self.sim.now or self.sim.peek() < bound:
            self.sim.run(until=bound)
        return (self.sim.now, self.sim.events_scheduled, len(self._ingress)) != before

    def _deliver(self, ev: Event) -> None:
        self.ctx._dispatch(ev.payload)

    def advert(self) -> float:
        """Lower bound on this LP's future send clocks: nothing can run
        before the next local event, the next pending ingress message, or
        the channel bound — whichever is earliest."""
        ingress_next = self._ingress[0][0] if self._ingress else float("inf")
        return min(self.sim.peek(), ingress_next, self._channel_bound())

    def take_advert(self) -> Optional[Advert]:
        """The advert to flush this round, or None when it hasn't grown.
        Sending only strictly increasing adverts keeps null-message
        traffic at O(horizon / lookahead) per channel."""
        clock = self.advert()
        if clock <= self._last_advert:
            return None
        self._last_advert = clock
        return Advert(self.rank, clock)

    def done(self) -> bool:
        return self.sim.now >= self.until and self.horizon() >= self.until

    # -- results -----------------------------------------------------------
    def result(self) -> Dict[str, Any]:
        return {
            "partition": self.plan.partitions[self.rank].name,
            "rank": self.rank,
            "clock_ms": self.sim.now,
            "events": self.sim.events_scheduled,
            "messages_out": self._msg_seq,
            "messages_in": self._msgs_in,
            **self.ctx.stats_snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LogicalProcess rank={self.rank} t={self.sim.now} "
            f"horizon={self.horizon()}>"
        )
