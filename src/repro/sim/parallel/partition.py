"""Topology partitioning for the conservative parallel kernel.

The paper's deployments are inherently *site-partitioned*: three sites
whose only slow edges are the inter-site links (Figure 5).  That is
exactly the shape conservative parallel DES wants — each site becomes
one logical process, and the inter-site link latency becomes the
channel lookahead that bounds how far each side may safely run ahead.

Nodes group by a credential (``site`` by default) when every node
carries it.  A uniform credential yields one partition — a legal
degenerate plan that the runner executes on the plain sequential
kernel — and so does a topology where some node lacks the credential.

Every cut link must have strictly positive latency: zero-latency cuts
give zero lookahead, which deadlocks a conservative protocol.  Rather
than deadlock, :func:`partition_network` collapses such splits to a
single partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..events import SimulationError

__all__ = [
    "Partition",
    "CutLink",
    "PartitionPlan",
    "PartitionError",
    "partition_network",
]


class PartitionError(SimulationError):
    """The topology cannot be partitioned for conservative execution."""


@dataclass(frozen=True)
class Partition:
    """One logical process's share of the topology."""

    rank: int
    name: str
    nodes: Tuple[str, ...]

    def __contains__(self, node: str) -> bool:
        return node in self.nodes


@dataclass(frozen=True)
class CutLink:
    """One direction of a link crossing a partition boundary.

    A physical cut link appears twice (once per direction) because the
    transmit resource of each direction is owned by its sender — links
    are full-duplex, so the two halves share no simulation state.
    """

    src: str
    dst: str
    src_rank: int
    dst_rank: int
    latency_ms: float
    bandwidth_mbps: float


@dataclass
class PartitionPlan:
    """The static structure of a parallel run.

    Fully determined by the topology (never by the worker count), so
    event keys, channel lookaheads and message sequence numbers are
    identical no matter how partitions are packed onto processes.
    """

    partitions: Tuple[Partition, ...]
    rank_of: Dict[str, int]
    cuts: Tuple[CutLink, ...]
    #: per directed partition pair: min latency over its cut links —
    #: the channel lookahead in ms.
    lookahead_ms: Dict[Tuple[int, int], float]
    method: str
    _neighbors_in: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    _neighbors_out: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ins: Dict[int, set] = {p.rank: set() for p in self.partitions}
        outs: Dict[int, set] = {p.rank: set() for p in self.partitions}
        for src_rank, dst_rank in self.lookahead_ms:
            outs[src_rank].add(dst_rank)
            ins[dst_rank].add(src_rank)
        self._neighbors_in = {r: tuple(sorted(s)) for r, s in ins.items()}
        self._neighbors_out = {r: tuple(sorted(s)) for r, s in outs.items()}

    def __len__(self) -> int:
        return len(self.partitions)

    @property
    def min_lookahead_ms(self) -> float:
        """The global safety margin: min over all channel lookaheads."""
        if not self.lookahead_ms:
            return float("inf")
        return min(self.lookahead_ms.values())

    def in_neighbors(self, rank: int) -> Tuple[int, ...]:
        """Ranks with a channel *into* ``rank`` (sorted)."""
        return self._neighbors_in[rank]

    def out_neighbors(self, rank: int) -> Tuple[int, ...]:
        """Ranks ``rank`` has a channel *to* (sorted)."""
        return self._neighbors_out[rank]

    def cut_links_from(self, rank: int) -> Tuple[CutLink, ...]:
        return tuple(c for c in self.cuts if c.src_rank == rank)

    def subnetwork(self, network: Any, rank: int) -> Any:
        """A fresh :class:`~repro.network.topology.Network` holding only
        this partition's nodes and its fully internal links."""
        from ...network.topology import Network

        part = self.partitions[rank]
        members = set(part.nodes)
        sub = Network()
        for name in part.nodes:
            info = network.node(name)
            sub.add_node(name, info.cpu_capacity, dict(info.credentials))
        for link in network.links():
            if link.a in members and link.b in members:
                sub.add_link(
                    link.a,
                    link.b,
                    link.latency_ms,
                    link.bandwidth_mbps,
                    link.secure,
                    dict(link.credentials),
                )
        return sub

    def placement(self, n_workers: int) -> List[List[int]]:
        """Which ranks share a worker process, as sorted rank lists
        ordered by their lowest rank.

        Worker count never changes a result, only which channels cross
        a process boundary — and a cross-process channel costs wall time
        in proportion to how often its ends must hear from each other,
        i.e. inversely to its lookahead.  So the tightest channels are
        kept in-process: repeatedly co-locate the two groups joined by
        the smallest lookahead (ties: fewer nodes in the merged group,
        then lowest ranks), never letting a group outgrow round-robin's
        ``ceil(P / W)`` or the groups stop fitting on ``W`` workers.
        Whatever is still separate when no channel can be merged is
        packed largest group first onto the least-loaded worker, so no
        worker is left empty.  A function of the plan alone.
        """
        n_workers = max(1, min(n_workers, len(self)))
        cap = -(-len(self) // n_workers)

        def pack(groups: List[List[int]]) -> List[List[int]]:
            workers: List[List[int]] = [[] for _ in range(n_workers)]
            for group in sorted(groups, key=lambda g: (-len(g), g)):
                min(workers, key=len).extend(group)
            return sorted(sorted(ranks) for ranks in workers)

        def lookahead(a: List[int], b: List[int]) -> float:
            return min(
                self.lookahead_ms.get(pair, float("inf"))
                for x in a
                for y in b
                for pair in ((x, y), (y, x))
            )

        def weight(group: List[int]) -> int:
            return sum(len(self.partitions[rank].nodes) for rank in group)

        groups = [[rank] for rank in range(len(self))]
        packed = pack(groups)
        while len(groups) > n_workers:
            joined = sorted(
                (look, weight(a + b), sorted(a + b), i, j)
                for i, a in enumerate(groups)
                for j, b in enumerate(groups[:i])
                if len(a) + len(b) <= cap
                and (look := lookahead(a, b)) < float("inf")
            )
            for _look, _weight, merged, i, j in joined:
                trial = [g for k, g in enumerate(groups) if k not in (i, j)]
                trial.append(merged)
                workers = pack(trial)
                if max(map(len, workers)) <= cap:
                    groups, packed = trial, workers
                    break
            else:
                break
        return packed

    def describe(self) -> List[str]:
        """Human-readable plan summary, one line per partition."""
        lines = [f"method={self.method} min_lookahead={self.min_lookahead_ms}ms"]
        for p in self.partitions:
            out = ", ".join(
                f"->{self.partitions[d].name}@{self.lookahead_ms[(p.rank, d)]}ms"
                for d in self.out_neighbors(p.rank)
            )
            lines.append(
                f"  [{p.rank}] {p.name}: {len(p.nodes)} nodes"
                + (f" ({out})" if out else "")
            )
        return lines


def _plan_from_groups(
    network: Any, groups: List[Tuple[str, List[str]]], method: str
) -> PartitionPlan:
    partitions = tuple(
        Partition(rank, name, tuple(sorted(nodes)))
        for rank, (name, nodes) in enumerate(groups)
    )
    rank_of = {n: p.rank for p in partitions for n in p.nodes}
    cuts: List[CutLink] = []
    lookahead: Dict[Tuple[int, int], float] = {}
    for link in network.links():
        ra, rb = rank_of[link.a], rank_of[link.b]
        if ra == rb:
            continue
        for src, dst, rs, rd in ((link.a, link.b, ra, rb), (link.b, link.a, rb, ra)):
            cuts.append(
                CutLink(src, dst, rs, rd, link.latency_ms, link.bandwidth_mbps)
            )
            key = (rs, rd)
            prev = lookahead.get(key)
            if prev is None or link.latency_ms < prev:
                lookahead[key] = link.latency_ms
    cuts.sort(key=lambda c: (c.src_rank, c.dst_rank, c.src, c.dst))
    return PartitionPlan(partitions, rank_of, tuple(cuts), lookahead, method)


def _single_partition(network: Any, method: str) -> PartitionPlan:
    nodes = sorted(network.node_names())
    return _plan_from_groups(network, [("all", nodes)], method)


def partition_network(network: Any, credential: str = "site") -> PartitionPlan:
    """Partition ``network`` for conservative parallel execution.

    Groups nodes by ``credential`` (module docstring).  A split whose cut
    links include a zero-latency edge would mean zero lookahead, and a
    topology where some node lacks the credential has no split at all:
    both degenerate to a single partition.
    """
    names = sorted(network.node_names())
    if not names:
        raise PartitionError("cannot partition an empty network")
    values: Dict[str, List[str]] = {}
    for name in names:
        cred = network.node(name).credentials.get(credential)
        if cred is None:
            return _single_partition(network, f"degenerate:no-{credential}")
        values.setdefault(str(cred), []).append(name)
    plan = _plan_from_groups(network, sorted(values.items()), f"credential:{credential}")
    if any(c.latency_ms <= 0 for c in plan.cuts):
        return _single_partition(network, f"degenerate:{credential}-zero-cut")
    return plan
