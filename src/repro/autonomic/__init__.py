"""Autonomic load-driven replanning (ROADMAP item 4).

Closes the monitor -> detect -> plan -> evolve loop of Dearle et al.
(arXiv:1006.4730, arXiv:1006.4572) over this repo's pieces: the
telemetry sampler (PR 6) monitors, the :mod:`~repro.autonomic.policy`
engine detects sustained threshold violations, and the
:mod:`~repro.autonomic.manager` actuates them as utilization-triggered
replanning rounds — elastic view scale-out/in and live migration riding
the existing replanner/coherence machinery.  Everything is behind
``SmockRuntime(autonomic=False)``: off means not constructed, and runs
are byte-identical.
"""

from .manager import AutonomicEvent, AutonomicManager
from .policy import DEFAULT_RULES, PolicyEngine, ScaleSignal, ThresholdRule

__all__ = [
    "AutonomicEvent",
    "AutonomicManager",
    "DEFAULT_RULES",
    "PolicyEngine",
    "ScaleSignal",
    "ThresholdRule",
]
