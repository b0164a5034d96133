"""Deterministic chaos testing for the Smock runtime.

Seeded fault-plan generation (:mod:`~repro.chaos.plangen`), an
end-to-end harness that drives the mail case study under a generated
schedule (:mod:`~repro.chaos.harness`), and post-quiescence invariant
checks (:mod:`~repro.chaos.invariants`): durability of acked sends,
replica convergence, client re-binding, and same-seed determinism.
"""

from .harness import (
    ChaosCaseConfig,
    ChaosCaseResult,
    run_chaos_case,
)
from .invariants import (
    check_all,
    check_convergence,
    check_durability,
    check_rebinding,
)
from .plangen import generate_fault_plan

__all__ = [
    "ChaosCaseConfig",
    "ChaosCaseResult",
    "run_chaos_case",
    "check_all",
    "check_convergence",
    "check_durability",
    "check_rebinding",
    "generate_fault_plan",
]
