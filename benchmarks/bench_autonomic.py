"""Autonomic scale-out benchmark: the flash crowd, with the loop closed.

Not a paper figure: this file quantifies the autonomic adaptation loop
(telemetry -> policy -> replanning, see ``repro.autonomic``) on the same
scaled-down Figure 5 testbed as ``bench_load.py`` (``node_cpu=100``,
~110 req/s capacity knee).  One headline cell-quad:

- **reference / unprotected / protected** — the exact flash-crowd cells
  ``bench_load.py`` pins, re-run here with ``autonomic=False``.  Their
  determinism signatures must stay byte-identical to the committed
  ``BENCH_load.json`` values: the autonomic subsystem must cost nothing
  when off.
- **autonomic** — protection *plus* the closed loop.  The ~5.5x flash
  over the knee trips the sustained-threshold rules, the policy engine
  emits scale-out signals, and the manager replans with measured rates:
  new view replicas absorb the crowd, so goodput *exceeds* the
  protected-only cell instead of merely shedding down to one chain's
  capacity.  After the crowd decays, scale-in consolidates below the
  peak replica count with zero lost acked updates.

``BENCH_autonomic.json`` (checked in next to this file) records wall
times; the test fails if it runs more than ``conftest.REGRESSION_FACTOR``x
slower.  Refresh on a quiet machine with
``REPRO_WRITE_BENCH_BASELINE=1 pytest benchmarks/bench_autonomic.py``.
The physics assertions (scale-out fired, goodput above protected-only,
bounded p99 recovery, convergence invariants) are machine-independent
and always enforced.
"""

from __future__ import annotations

import json
import pathlib
import time

from conftest import check_or_record
from repro.load import LoadConfig, run_flash_crowd_pair

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_autonomic.json"
LOAD_BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_load.json"

#: one seed for every cell: load benchmarks are determinism-pinned
SEED = 7
#: p99 must fall back under the SLO bound within this many telemetry
#: windows of the first scale-out install (500 ms windows)
RECOVERY_WINDOW_BOUND = 8


def _pinned_load_signatures() -> dict:
    """The flash-pair signatures ``bench_load.py`` committed — the
    autonomic=False cells here must reproduce them byte-for-byte."""
    data = json.loads(LOAD_BASELINE_PATH.read_text())
    return data["current"]["flash_crowd_pair"]["signatures"]


# -- benchmarks --------------------------------------------------------------

def test_autonomic_flash_crowd_headline(benchmark, report_lines):
    """The headline quad: autonomic scale-out beats protected-only
    goodput on the same flash crowd, recovers p99 within bounded
    telemetry windows, and scales back in without losing state — while
    the autonomic=False cells stay byte-identical to BENCH_load.json."""

    def run():
        t0 = time.perf_counter()
        pair = run_flash_crowd_pair(
            config=LoadConfig(n_users=10_000, seed=SEED), autonomic=True
        )
        wall = time.perf_counter() - t0

        # Knob discipline: with autonomic off the runs are byte-identical
        # to the pre-autonomic build (same signatures bench_load.py pins).
        pinned = _pinned_load_signatures()
        assert pair.unprotected.signature == pinned["unprotected"], (
            "autonomic=False unprotected cell diverged from the committed "
            "BENCH_load.json signature — the off-path is no longer free"
        )
        assert pair.protected.signature == pinned["protected"], (
            "autonomic=False protected cell diverged from the committed "
            "BENCH_load.json signature — the off-path is no longer free"
        )

        # Scale-out pays: goodput holds >= 80% of the pre-knee peak AND
        # beats the protected-only cell (shedding alone caps at one
        # chain's capacity; replication should exceed it).
        cell = pair.autonomic
        assert cell is not None
        assert pair.autonomic_retention is not None
        assert pair.autonomic_retention >= 0.8, (
            f"autonomic flash kept only {pair.autonomic_retention:.0%} of "
            f"peak goodput — scale-out no longer absorbs the crowd"
        )
        assert cell.goodput_per_s > pair.protected.goodput_per_s, (
            f"autonomic goodput {cell.goodput_per_s:.1f}/s does not beat "
            f"protected-only {pair.protected.goodput_per_s:.1f}/s — "
            f"replication adds no capacity over shedding"
        )
        assert cell.p99_ms < 60_000.0  # default mail SLO p99 bound

        # The loop actually closed: a scale-out round installed replicas,
        # p99 recovered within bounded telemetry windows, and scale-in
        # consolidated below the peak replica count.
        summary = cell.autonomic
        assert summary is not None
        assert summary["scale_out_at_ms"] is not None
        assert summary["installed"] >= 1
        assert summary["retired"] >= 1
        assert summary["views_final"] < summary["views_peak"], (
            f"scale-in left {summary['views_final']} views at the "
            f"{summary['views_peak']}-view peak — no consolidation"
        )
        recovery = summary["p99_windows_to_recover"]
        assert recovery is not None and recovery <= RECOVERY_WINDOW_BOUND, (
            f"p99 took {recovery} telemetry windows to recover "
            f"(bound {RECOVERY_WINDOW_BOUND})"
        )

        # State preservation across scale rounds: every acked update
        # survived drain/flush/retire and replicas converged.
        assert summary["lost_updates"] == 0
        assert summary["has_lost_buffers"] is False
        assert summary["convergence_violations"] == []

        return {
            "wall_s": round(wall, 4),
            "peak_goodput_per_s": round(pair.peak_goodput_per_s, 1),
            "autonomic_goodput_per_s": round(cell.goodput_per_s, 1),
            "protected_goodput_per_s": round(pair.protected.goodput_per_s, 1),
            "autonomic_retention": round(pair.autonomic_retention, 3),
            "autonomic_p99_ms": round(cell.p99_ms, 1),
            "scale_out_at_ms": summary["scale_out_at_ms"],
            "p99_windows_to_recover": recovery,
            "views_peak": summary["views_peak"],
            "views_final": summary["views_final"],
            "installed": summary["installed"],
            "retired": summary["retired"],
            "signature": cell.signature,
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    check_or_record(BASELINE_PATH, "autonomic_flash_crowd", measured)
    report_lines.append(
        f"Autonomic: flash crowd -> scale-out at "
        f"{measured['scale_out_at_ms']:.0f} ms, goodput "
        f"{measured['autonomic_goodput_per_s']}/s "
        f"({measured['autonomic_retention']:.0%} of peak, vs protected-only "
        f"{measured['protected_goodput_per_s']}/s), p99 recovered in "
        f"{measured['p99_windows_to_recover']} windows, views "
        f"{measured['views_peak']} -> {measured['views_final']}"
    )
