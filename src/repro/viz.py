"""ASCII rendering of deployments (Figure 6).

:func:`render_deployment` overlays plans on the topology's nodes grouped
by a credential (site) — a pure-text, dependency-free analogue of
Figure 6's component boxes, used by ``fig6 --draw`` and the examples.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from .network import Network
from .planner import DeploymentPlan

__all__ = ["render_deployment"]


def _group_nodes(network: Network, group_by: str) -> Dict[str, List[str]]:
    groups: Dict[str, List[str]] = defaultdict(list)
    for node in network.nodes():
        groups[str(node.credentials.get(group_by, "?"))].append(node.name)
    return dict(sorted(groups.items()))


_ABBREV = {
    "MailClient": "MC",
    "ViewMailClient": "VMC",
    "MailServer": "MS",
    "ViewMailServer": "VMS",
    "Encryptor": "E",
    "Decryptor": "D",
}


def _label(placement, abbrev: bool) -> str:
    name = _ABBREV.get(placement.unit, placement.unit) if abbrev else placement.unit
    factors = ",".join(f"{v}" for _k, v in placement.factor_values)
    return f"{name}[{factors}]" if factors else name


def render_deployment(
    network: Network,
    plans: Iterable[DeploymentPlan],
    group_by: str = "site",
    abbrev: bool = True,
) -> str:
    """Plans overlaid on the grouped topology — the Figure 6 picture.

    Components from every plan are attached to their hosting nodes;
    reused placements are marked with ``*``.
    """
    by_node: Dict[str, List[str]] = defaultdict(list)
    for plan in plans:
        for placement in plan.placements:
            tag = _label(placement, abbrev) + ("*" if placement.reused else "")
            if tag not in by_node[placement.node]:
                by_node[placement.node].append(tag)

    lines: List[str] = []
    for group, nodes in _group_nodes(network, group_by).items():
        lines.append(f"[{group}]")
        for name in sorted(nodes):
            deployed = by_node.get(name, [])
            suffix = "  <- " + ", ".join(deployed) if deployed else ""
            lines.append(f"  o {name}{suffix}")
    legend = sorted(
        {f"{abbr}={full}" for full, abbr in _ABBREV.items()}
    ) if abbrev else []
    if legend:
        lines.append("")
        lines.append("legend: " + ", ".join(legend) + ", *=reused")
    return "\n".join(lines)

