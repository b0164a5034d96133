"""BRITE-style random topology generation.

The paper's case-study network "was generated using Boston University's
BRITE tool" [19].  BRITE's Waxman flat router-level model is
reimplemented here with the same parameter surface: nodes placed
uniformly in a plane; an edge (u, v) exists with probability
``alpha * exp(-d(u, v) / (beta * L))`` where ``L`` is the maximum
possible distance.  Incremental growth with ``m`` edges per joining node
guarantees connectivity.

Generation is seeded and deterministic.  Link latencies derive from
Euclidean distance (speed-of-light-ish scaling) and bandwidths are drawn
uniformly from a configurable range, mirroring BRITE's bandwidth assignment modes.
A fraction of links can be marked insecure to produce heterogeneous
security environments for the planner.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .topology import Network

__all__ = ["BriteConfig", "generate_waxman"]


@dataclass
class BriteConfig:
    """Parameters shared by the generator models.

    Defaults follow BRITE's documented defaults (alpha=0.15, beta=0.2,
    1000x1000 plane).
    """

    n_nodes: int = 20
    m_edges: int = 2  #: new edges per joining node (incremental growth)
    alpha: float = 0.15
    beta: float = 0.2
    plane_size: float = 1000.0
    #: latency per unit of Euclidean distance, in ms (distance scaling)
    ms_per_unit: float = 0.05
    bandwidth_range_mbps: Tuple[float, float] = (8.0, 100.0)
    cpu_capacity_range: Tuple[float, float] = (500.0, 2000.0)
    #: probability that a generated link is flagged insecure
    insecure_fraction: float = 0.3
    #: trust level assigned to each node, drawn uniformly from this range
    trust_level_range: Tuple[int, int] = (1, 5)
    seed: int = 0
    node_prefix: str = "n"

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not 1 <= self.m_edges < self.n_nodes:
            raise ValueError("m_edges must be in [1, n_nodes)")
        if not 0.0 <= self.insecure_fraction <= 1.0:
            raise ValueError("insecure_fraction must be in [0, 1]")


def _place_nodes(cfg: BriteConfig, rng: random.Random) -> List[Tuple[float, float]]:
    return [
        (rng.uniform(0, cfg.plane_size), rng.uniform(0, cfg.plane_size))
        for _ in range(cfg.n_nodes)
    ]


def _add_nodes(net: Network, cfg: BriteConfig, rng: random.Random) -> List[str]:
    names = []
    for i in range(cfg.n_nodes):
        name = f"{cfg.node_prefix}{i}"
        lo, hi = cfg.cpu_capacity_range
        tl_lo, tl_hi = cfg.trust_level_range
        net.add_node(
            name,
            cpu_capacity=rng.uniform(lo, hi),
            credentials={
                "trust_level": rng.randint(tl_lo, tl_hi),
                "site": f"site{i % max(1, cfg.n_nodes // 5)}",
            },
        )
        names.append(name)
    return names


def _add_link(
    net: Network,
    cfg: BriteConfig,
    rng: random.Random,
    names: List[str],
    pos: List[Tuple[float, float]],
    i: int,
    j: int,
) -> None:
    (x1, y1), (x2, y2) = pos[i], pos[j]
    dist = math.hypot(x1 - x2, y1 - y2)
    lo, hi = cfg.bandwidth_range_mbps
    net.add_link(
        names[i],
        names[j],
        latency_ms=max(0.1, dist * cfg.ms_per_unit),
        bandwidth_mbps=rng.uniform(lo, hi),
        secure=rng.random() >= cfg.insecure_fraction,
    )


def generate_waxman(cfg: BriteConfig) -> Network:
    """Incremental-growth Waxman topology (BRITE's RTWaxman model)."""
    rng = random.Random(cfg.seed)
    net = Network()
    pos = _place_nodes(cfg, rng)
    names = _add_nodes(net, cfg, rng)
    max_dist = cfg.plane_size * math.sqrt(2.0)

    for i in range(1, cfg.n_nodes):
        # Connect node i to up to m existing nodes, Waxman-weighted.
        candidates = list(range(i))
        weights = []
        for j in candidates:
            (x1, y1), (x2, y2) = pos[i], pos[j]
            d = math.hypot(x1 - x2, y1 - y2)
            weights.append(cfg.alpha * math.exp(-d / (cfg.beta * max_dist)))
        chosen: List[int] = []
        # Weighted sampling without replacement.
        pool = list(zip(candidates, weights))
        for _ in range(min(cfg.m_edges, len(pool))):
            total = sum(w for _, w in pool)
            if total <= 0:
                j = pool[rng.randrange(len(pool))][0]
            else:
                r = rng.uniform(0, total)
                acc = 0.0
                j = pool[-1][0]
                for cand, w in pool:
                    acc += w
                    if r <= acc:
                        j = cand
                        break
            chosen.append(j)
            pool = [(c, w) for c, w in pool if c != j]
        for j in chosen:
            _add_link(net, cfg, rng, names, pos, i, j)
    return net
