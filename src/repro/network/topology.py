"""Static network model used by the planner.

The planner (paper §3.3) sees the network as a graph of nodes and links
"modeled in terms of their resource characteristics (CPU capacity,
bandwidth, latency) and application-independent credentials".  This
module provides that graph: :class:`NodeInfo`, :class:`LinkInfo`, the
:class:`Network` container, and path routing used to evaluate end-to-end
environments between candidate component placements.

A :class:`Network` can also be *materialized* into live simulation
objects (:class:`~repro.sim.SimNode`, :class:`~repro.sim.SimLink`) when a
deployment actually executes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..sim import SimLink, SimNode, Simulator, transfer_time_ms

__all__ = ["NodeInfo", "LinkInfo", "PathInfo", "Network", "NetworkError"]


class NetworkError(KeyError):
    """Unknown node/link or disconnected endpoints."""


@dataclass
class NodeInfo:
    """Planner-visible description of one host.

    ``credentials`` holds application-independent facts (e.g. site name,
    administrative domain, hardware class).  Services never read these
    directly; the credential-translation layer turns them into service
    properties (paper §3.3, §6).
    """

    name: str
    cpu_capacity: float = 1000.0
    credentials: Dict[str, Any] = field(default_factory=dict)
    #: remaining CPU budget, in work-units/sec, decremented as the
    #: planner commits components (condition 3).
    reserved_cpu: float = 0.0
    #: believed liveness — flipped by failure detectors, not by fault
    #: injection, so the planner's view lags reality by the detection
    #: latency (exactly as a real deployment's would).
    up: bool = True

    @property
    def free_cpu(self) -> float:
        return self.cpu_capacity - self.reserved_cpu

    def copy(self) -> "NodeInfo":
        return NodeInfo(
            name=self.name,
            cpu_capacity=self.cpu_capacity,
            credentials=dict(self.credentials),
            reserved_cpu=self.reserved_cpu,
            up=self.up,
        )


@dataclass
class LinkInfo:
    """Planner-visible description of one link (Figure 5 annotations)."""

    a: str
    b: str
    latency_ms: float = 0.0
    bandwidth_mbps: float = 100.0
    secure: bool = True
    credentials: Dict[str, Any] = field(default_factory=dict)
    reserved_mbps: float = 0.0
    #: liveness — a partitioned link is invisible to routing (traffic
    #: reroutes immediately, as IP would) but stays in the graph so the
    #: monitor can observe the outage and replanning can react.
    up: bool = True

    @property
    def name(self) -> str:
        return f"{self.a}<->{self.b}"

    @property
    def free_mbps(self) -> float:
        return self.bandwidth_mbps - self.reserved_mbps

    def copy(self) -> "LinkInfo":
        return LinkInfo(
            a=self.a,
            b=self.b,
            latency_ms=self.latency_ms,
            bandwidth_mbps=self.bandwidth_mbps,
            secure=self.secure,
            credentials=dict(self.credentials),
            reserved_mbps=self.reserved_mbps,
            up=self.up,
        )


@dataclass
class PathInfo:
    """Aggregate environment of a multi-hop path between two nodes.

    ``secure`` is the conjunction over hops; latency sums; bandwidth is
    the bottleneck minimum.  A zero-hop path (both components on the same
    node) is secure with zero latency and unbounded bandwidth.
    """

    src: str
    dst: str
    hops: Tuple[LinkInfo, ...]

    @property
    def latency_ms(self) -> float:
        return sum(h.latency_ms for h in self.hops)

    @property
    def bandwidth_mbps(self) -> float:
        if not self.hops:
            return float("inf")
        return min(h.bandwidth_mbps for h in self.hops)

    @property
    def free_mbps(self) -> float:
        if not self.hops:
            return float("inf")
        return min(h.free_mbps for h in self.hops)

    @property
    def secure(self) -> bool:
        return all(h.secure for h in self.hops)

    @property
    def is_local(self) -> bool:
        return not self.hops

    def transfer_time_ms(self, size_bytes: int) -> float:
        """Analytic end-to-end one-way transfer time for a message."""
        if not self.hops:
            return 0.0
        return sum(
            transfer_time_ms(size_bytes, h.bandwidth_mbps, h.latency_ms)
            for h in self.hops
        )


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class Network:
    """Mutable graph of :class:`NodeInfo` and :class:`LinkInfo`.

    Nodes are keyed by name; at most one link per node pair (the paper's
    topologies are simple graphs).  Shortest paths are by latency, which
    matches how the case-study deployments are reasoned about.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, NodeInfo] = {}
        self._links: Dict[Tuple[str, str], LinkInfo] = {}
        self._links_by_name: Dict[str, LinkInfo] = {}
        self._adj: Dict[str, List[str]] = {}
        #: per source, the predecessor map of its shortest-path tree
        self._route_trees: Dict[str, Dict[str, str]] = {}
        self._path_cache: Dict[Tuple[str, str], PathInfo] = {}
        self._version = 0
        self._structure_version = 0
        self._graph_version = 0
        self._fingerprint: Optional[int] = None

    # -- construction ----------------------------------------------------
    def add_node(
        self,
        name: str,
        cpu_capacity: float = 1000.0,
        credentials: Optional[Dict[str, Any]] = None,
    ) -> NodeInfo:
        """Add a host; raises on duplicates."""
        if name in self._nodes:
            raise NetworkError(f"duplicate node {name!r}")
        if not cpu_capacity > 0:  # also rejects NaN
            raise ValueError(f"cpu_capacity must be positive, got {cpu_capacity}")
        info = NodeInfo(name, cpu_capacity, dict(credentials or {}))
        self._nodes[name] = info
        self._adj[name] = []
        self._invalidate()
        return info

    def add_link(
        self,
        a: str,
        b: str,
        latency_ms: float = 0.0,
        bandwidth_mbps: float = 100.0,
        secure: bool = True,
        credentials: Optional[Dict[str, Any]] = None,
    ) -> LinkInfo:
        """Add a link between existing nodes; raises on duplicates.

        A non-positive ``bandwidth_mbps`` means "infinitely fast" (pure
        latency); a negative or NaN latency and a NaN bandwidth are
        refused, since routing cannot order them."""
        if a not in self._nodes:
            raise NetworkError(f"unknown node {a!r}")
        if b not in self._nodes:
            raise NetworkError(f"unknown node {b!r}")
        if a == b:
            raise NetworkError("self-links are not allowed")
        key = _link_key(a, b)
        if key in self._links:
            raise NetworkError(f"duplicate link {a!r}<->{b!r}")
        if not latency_ms >= 0:  # also rejects NaN
            raise ValueError(f"latency_ms must be >= 0, got {latency_ms}")
        if math.isnan(bandwidth_mbps):
            raise ValueError("bandwidth_mbps must be a number, got nan")
        info = LinkInfo(a, b, latency_ms, bandwidth_mbps, secure, dict(credentials or {}))
        self._links[key] = info
        self._links_by_name[info.name] = info
        self._adj[a].append(b)
        self._adj[b].append(a)
        self._invalidate()
        return info

    def remove_link(self, a: str, b: str) -> None:
        """Delete a link (used by dynamic-replanning experiments)."""
        key = _link_key(a, b)
        if key not in self._links:
            raise NetworkError(f"no link {a!r}<->{b!r}")
        del self._links_by_name[self._links.pop(key).name]
        self._adj[a].remove(b)
        self._adj[b].remove(a)
        self._invalidate()

    def _invalidate(self, liveness: bool = False) -> None:
        self._route_trees.clear()
        self._path_cache.clear()
        if not liveness:
            self._graph_version += 1
        self._structure_version += 1
        self._version += 1
        self._fingerprint = None

    @property
    def version(self) -> int:
        """Bumped on every topology/attribute mutation via this API."""
        return self._version

    @property
    def structure_version(self) -> int:
        """Bumped by every mutation *except* capacity reservations.

        Routes, node/path environments and installability are functions
        of the graph, liveness, link attributes and credentials — never
        of ``reserved_cpu`` / ``reserved_mbps`` — so caches of those key
        on this counter and survive :meth:`touch_reservations`.
        """
        return self._structure_version

    @property
    def graph_version(self) -> int:
        """Bumped by every :attr:`structure_version` change *except* a
        liveness flip (:meth:`set_node_up`, :meth:`set_link_up`): a node
        or link added or removed, or :meth:`touch`.

        While it stands, every link and node attribute but liveness and
        the reservations is fixed, so a route (a pair and its hop
        sequence) crosses hops with the same latency, bandwidth, security
        and credentials, and what is derived from those alone survives a
        flip; only which route a pair takes, and whether it has one,
        can change.
        """
        return self._graph_version

    def state_fingerprint(self) -> int:
        """Stable hash of all planning-relevant network state.

        Covers exactly what a search reads: per node the liveness,
        CPU capacity/reservation and credentials; per link the liveness,
        latency, bandwidth/reservation, security flag and credentials.
        Computed lazily and cached until the next mutation, so it costs
        one dict scan per topology change, not per lookup.

        Unlike :attr:`version` (which increases monotonically), the
        fingerprint is *content-based*: a crash/restart cycle or a
        flapping link returns the network to a previously seen
        fingerprint, letting the :class:`~repro.planner.cache.PlanCache`
        recognize the recurring world and serve plans it already solved.
        """
        if self._fingerprint is None:
            nodes = tuple(
                (
                    n.name,
                    n.up,
                    n.cpu_capacity,
                    n.reserved_cpu,
                    tuple(sorted((k, repr(v)) for k, v in n.credentials.items())),
                )
                for n in sorted(self._nodes.values(), key=lambda n: n.name)
            )
            links = tuple(
                (
                    l.a,
                    l.b,
                    l.up,
                    l.latency_ms,
                    l.bandwidth_mbps,
                    l.reserved_mbps,
                    l.secure,
                    tuple(sorted((k, repr(v)) for k, v in l.credentials.items())),
                )
                for l in sorted(self._links.values(), key=lambda l: (l.a, l.b))
            )
            self._fingerprint = hash((nodes, links))
        return self._fingerprint

    def touch(self) -> None:
        """Record an external attribute mutation (e.g. by a monitor)."""
        self._invalidate()

    def touch_reservations(self) -> None:
        """Record a change to ``reserved_cpu`` / ``reserved_mbps`` only.

        Moves :attr:`version` and :meth:`state_fingerprint` (condition 3
        reads reservations, so plan-cache epochs must change) but keeps
        the routes and :attr:`structure_version`.  Any other attribute
        edit must use :meth:`touch`.
        """
        self._version += 1
        self._fingerprint = None

    # -- liveness (fault tolerance layer) ---------------------------------
    def set_link_up(self, a: str, b: str, up: bool) -> LinkInfo:
        """Partition/heal a link; routing reacts immediately."""
        info = self.link(a, b)
        if info.up != up:
            info.up = up
            self._invalidate(liveness=True)
        return info

    def set_node_up(self, name: str, up: bool) -> NodeInfo:
        """Record believed node liveness (failure detectors call this)."""
        info = self.node(name)
        if info.up != up:
            info.up = up
            self._invalidate(liveness=True)
        return info

    # -- lookup ----------------------------------------------------------
    def node(self, name: str) -> NodeInfo:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def link(self, a: str, b: str) -> LinkInfo:
        try:
            return self._links[_link_key(a, b)]
        except KeyError:
            raise NetworkError(f"no link {a!r}<->{b!r}") from None

    def link_named(self, name: str) -> LinkInfo:
        """The link whose :attr:`LinkInfo.name` is ``name``."""
        try:
            return self._links_by_name[name]
        except KeyError:
            raise NetworkError(f"no link named {name!r}") from None

    def nodes(self) -> Iterator[NodeInfo]:
        return iter(self._nodes.values())

    def links(self) -> Iterator[LinkInfo]:
        return iter(self._links.values())

    def node_names(self) -> List[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def n_links(self) -> int:
        return len(self._links)

    # -- routing -----------------------------------------------------------
    def path(self, src: str, dst: str) -> PathInfo:
        """Lowest-latency path from ``src`` to ``dst`` (Dijkstra, cached).

        Partitioned links and believed-dead intermediate nodes are
        invisible to routing.  The endpoints themselves are *not*
        liveness-checked: a message may be routed toward a crashed host
        (and fail there) exactly as IP would carry it.  Raises
        :class:`NetworkError` if disconnected.

        Routes are read off one shortest-path tree per source.  The
        first request for a pair fixes the route in *both* directions
        (the reverse entry is the reversed forward path), so equal-
        latency ties resolve the same way whichever end asks later.
        """
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        if src not in self._nodes:
            raise NetworkError(f"unknown node {src!r}")
        if dst not in self._nodes:
            raise NetworkError(f"unknown node {dst!r}")
        if src == dst:
            info = self._path_cache[(src, src)] = PathInfo(src, src, ())
            return info
        prev = self._route_tree(src)
        if dst not in prev:
            raise NetworkError(f"no path {src!r} -> {dst!r}")

        hops: List[LinkInfo] = []
        cur = dst
        while cur != src:
            p = prev[cur]
            hops.append(self._links[_link_key(p, cur)])
            cur = p
        hops.reverse()
        info = PathInfo(src, dst, tuple(hops))
        self._path_cache[(src, dst)] = info
        self._path_cache[(dst, src)] = PathInfo(dst, src, tuple(reversed(hops)))
        return info

    def _route_tree(self, src: str) -> Dict[str, str]:
        """Predecessor of every node reachable from ``src`` (Dijkstra)."""
        prev = self._route_trees.get(src)
        if prev is not None:
            return prev
        dist: Dict[str, float] = {src: 0.0}
        prev = {}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        inf = float("inf")
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, inf):
                continue
            if u != src and not self._nodes[u].up:
                continue  # dead routers forward nothing
            for v in self._adj[u]:
                link = self._links[_link_key(u, v)]
                if not link.up:
                    continue
                nd = d + link.latency_ms
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        self._route_trees[src] = prev
        return prev

    # -- reservations (planner condition 3 bookkeeping) --------------------
    def reserve(
        self, node_cpu: Dict[str, float], link_mbps: Dict[str, float]
    ) -> List[Tuple[str, str, float]]:
        """Add each positive demand to its node's ``reserved_cpu`` or its
        link's ``reserved_mbps`` (node entries first, then link entries)
        and return what was held, for :meth:`release`."""
        held: List[Tuple[str, str, float]] = []
        for name, demand in node_cpu.items():
            if demand > 0:
                self.node(name).reserved_cpu += demand
                held.append(("node", name, demand))
        for name, mbps in link_mbps.items():
            if mbps > 0:
                self.link_named(name).reserved_mbps += mbps
                held.append(("link", name, mbps))
        self.touch_reservations()
        return held

    def release(self, held: List[Tuple[str, str, float]]) -> None:
        """Take back what :meth:`reserve` calls held, in their order; a
        release of nothing changes nothing."""
        if not held:
            return
        for kind, name, amount in held:
            if kind == "node":
                self.node(name).reserved_cpu -= amount
            else:
                self.link_named(name).reserved_mbps -= amount
        self.touch_reservations()

    def snapshot(self) -> "Network":
        """Deep copy for what-if planning without mutating live state."""
        other = Network()
        for n in self._nodes.values():
            other._nodes[n.name] = n.copy()
            other._adj[n.name] = list(self._adj[n.name])
        for k, l in self._links.items():
            other._links_by_name[l.name] = other._links[k] = l.copy()
        other._version = self._version
        other._structure_version = self._structure_version
        other._graph_version = self._graph_version
        return other

    # -- materialization ----------------------------------------------------
    def materialize(self, sim: Simulator) -> Tuple[Dict[str, SimNode], Dict[Tuple[str, str], SimLink]]:
        """Instantiate live simulation nodes/links mirroring this graph."""
        nodes = {
            n.name: SimNode(sim, n.name, n.cpu_capacity, dict(n.credentials))
            for n in self._nodes.values()
        }
        links = {
            key: SimLink(
                sim, l.a, l.b, l.latency_ms, l.bandwidth_mbps, l.secure, l.name
            )
            for key, l in self._links.items()
        }
        return nodes, links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network nodes={len(self._nodes)} links={len(self._links)}>"
