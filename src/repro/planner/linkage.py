"""Step 1 of planning: enumerating valid component linkage graphs.

"The planner starts off with the interface(s) requested by the client,
and finds components that implement these interface(s).  It then
recurses on each of these components by looking at their required
interfaces, stopping when it encounters a component without any
required interfaces." (§3.3)

Matching here is at the *interface-name* level (the paper's simple
string matching); property compatibility is step 2's business because it
depends on where components land.  Graphs are trees (every required
interface of every unit gets its own provider); component *sharing*
happens at mapping time through placement reuse.

Because views such as ``ViewMailServer`` both implement and require the
same interface, the space is infinite; enumeration is bounded by
``max_units`` per graph (the request's ``PlanRequest.max_units`` when a
planner enumerates) and ``max_repeat`` occurrences of one unit
(:data:`MAX_REPEAT` for every planner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import Observability, resolve_obs
from ..spec import ServiceSpec

__all__ = ["LinkageGraph", "enumerate_linkage_graphs", "valid_chains", "MAX_REPEAT"]

#: occurrences of one unit per linkage graph: two lets a view chain
#: through a second copy of itself (``ViewMailServer[2] ->
#: ViewMailServer[3]``, Figure 6's Seattle chain) and no further
MAX_REPEAT = 2


@dataclass(frozen=True)
class LinkageGraph:
    """One valid linkage tree: unit names plus (client, server, iface) edges.

    Index 0 is always the root (the unit that implements the client's
    requested interface).
    """

    units: Tuple[str, ...]
    edges: Tuple[Tuple[int, int, str], ...]

    @property
    def is_chain(self) -> bool:
        """True when the graph is a simple path rooted at index 0."""
        out_degree: Dict[int, int] = {}
        for client, _server, _iface in self.edges:
            out_degree[client] = out_degree.get(client, 0) + 1
            if out_degree[client] > 1:
                return False
        return True

    def chain_units(self) -> List[str]:
        """Units in root-to-leaf order (chains only)."""
        if not self.is_chain:
            raise ValueError("not a chain")
        nxt = {client: server for client, server, _ in self.edges}
        order = [0]
        while order[-1] in nxt:
            order.append(nxt[order[-1]])
        return [self.units[i] for i in order]

    def __repr__(self) -> str:
        if self.is_chain:
            return "<LinkageGraph " + " -> ".join(self.chain_units()) + ">"
        return f"<LinkageGraph units={list(self.units)} edges={list(self.edges)}>"


def enumerate_linkage_graphs(
    spec: ServiceSpec,
    interface: str,
    max_units: int = 8,
    max_repeat: int = MAX_REPEAT,
    obs: Optional[Observability] = None,
) -> List[LinkageGraph]:
    """All bounded linkage trees able to satisfy ``interface``.

    Deterministic order: graphs are produced smallest-first by unit
    count, then by the spec's declaration order.  Enumeration is traced
    as a ``planner.linkage.enumerate`` span and counted under
    ``planner.linkage_graphs_enumerated`` (the cost the paper's §4.1
    measures against ``max_units``).
    """
    obs = resolve_obs(obs)
    with obs.tracer.span(
        "planner.linkage.enumerate", interface=interface, max_units=max_units
    ) as span:
        results = _enumerate(spec, interface, max_units, max_repeat)
        span.set(graphs=len(results))
    obs.metrics.inc("planner.linkage_graphs_enumerated", len(results))
    return results


def _enumerate(
    spec: ServiceSpec, interface: str, max_units: int, max_repeat: int
) -> List[LinkageGraph]:
    results: List[LinkageGraph] = []
    for root in spec.implementers_of(interface):
        frontier = [(0, b.interface) for b in root.requires]
        _expand(spec, max_units, max_repeat, results, [root.name], [], frontier)
    results.sort(key=lambda g: (len(g.units), g.units))
    return results


def _expand(
    spec: ServiceSpec,
    max_units: int,
    max_repeat: int,
    results: List[LinkageGraph],
    units: List[str],
    edges: List[Tuple[int, int, str]],
    frontier: List[Tuple[int, str]],
) -> None:
    """Give ``frontier[0]`` each possible provider, depth first.  A
    module function, not a closure: a recursive closure is a reference
    cycle that would keep every graph alive until the collector runs."""
    if not frontier:
        results.append(LinkageGraph(tuple(units), tuple(edges)))
        return
    if len(units) >= max_units:
        return
    client_idx, iface = frontier[0]
    rest = frontier[1:]
    for provider in spec.implementers_of(iface):
        if units.count(provider.name) >= max_repeat:
            continue
        new_idx = len(units)
        units.append(provider.name)
        edges.append((client_idx, new_idx, iface))
        new_frontier = rest + [(new_idx, b.interface) for b in provider.requires]
        _expand(spec, max_units, max_repeat, results, units, edges, new_frontier)
        units.pop()
        edges.pop()


def valid_chains(
    spec: ServiceSpec, interface: str, max_units: int = 8, max_repeat: int = MAX_REPEAT
) -> List[List[str]]:
    """The chain-shaped subset as unit-name lists (Figure 3's content)."""
    return [
        g.chain_units()
        for g in enumerate_linkage_graphs(spec, interface, max_units, max_repeat)
        if g.is_chain
    ]
