"""Open-loop load benchmark: the capacity knee and the flash crowd.

Not a paper figure: this file quantifies the overload-protection
subsystem on the scaled-down Figure 5 testbed (``node_cpu=100``, ~110
req/s capacity knee on the default mail mix).  Three cells:

- **pre-knee peak** — a Poisson cell just under the knee: everything
  completes, goodput tracks offered load.  This is the reference
  goodput the flash-crowd retention numbers divide by.
- **knee sweep** — three offered rates bracketing the knee with
  protection off: goodput tracks load below the knee and *collapses*
  past it (abandoned-but-still-executing requests burn the server's
  CPU while retries amplify the offered load).
- **flash crowd** — the PR headline: the same ~8.5x flash over the knee
  with protection off (goodput collapses) and on (admission sheds +
  token buckets + breakers keep goodput >= 80% of the pre-knee
  reference with bounded p99).

``BENCH_load.json`` (checked in next to this file) records the wall
times; each test fails if it runs more than ``conftest.REGRESSION_FACTOR``x
slower.  Refresh on a quiet machine with
``REPRO_WRITE_BENCH_BASELINE=1 pytest benchmarks/bench_load.py``.
The physics assertions (retention, collapse, bounded p99) are
machine-independent and always enforced.
"""

from __future__ import annotations

import pathlib
import time

from conftest import check_or_record
from repro.load import LoadConfig, run_flash_crowd_pair, run_load_cell, run_load_sweep
from repro.sim import PoissonProcess

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_load.json"

#: one seed for every cell: load benchmarks are determinism-pinned
SEED = 7


def _config(duration_ms: float = 10_000.0, drain_ms: float = 30_000.0) -> LoadConfig:
    return LoadConfig(
        duration_ms=duration_ms, drain_ms=drain_ms, n_users=10_000, seed=SEED
    )


# -- benchmarks --------------------------------------------------------------

def test_pre_knee_peak(benchmark, report_lines):
    def run():
        t0 = time.perf_counter()
        cell = run_load_cell(
            PoissonProcess(100.0, seed=SEED), config=_config(), slo="default"
        )
        wall = time.perf_counter() - t0
        assert cell.availability == 1.0
        assert cell.slo_passed is True
        return {
            "wall_s": round(wall, 4),
            "offered_per_s": 100.0,
            "goodput_per_s": round(cell.goodput_per_s, 1),
            "p99_ms": round(cell.p99_ms, 1),
            "signature": cell.signature,
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    check_or_record(BASELINE_PATH, "pre_knee_peak", measured)
    report_lines.append(
        f"Load: pre-knee cell 100/s offered -> "
        f"{measured['goodput_per_s']} good/s, p99 {measured['p99_ms']:.0f} ms"
    )


def test_knee_sweep(benchmark, report_lines):
    def run():
        t0 = time.perf_counter()
        sweep = run_load_sweep(
            [60.0, 100.0, 140.0], modes=(False,), config=_config()
        )
        wall = time.perf_counter() - t0
        curve = {c.offered_rate_per_s: c.goodput_per_s for c in sweep.cells}
        # below the knee goodput tracks offered load ...
        assert curve[60.0] > 55.0
        assert curve[100.0] > 90.0
        # ... past it the unprotected system collapses, losing goodput
        # it could still have served
        assert curve[140.0] < curve[100.0]
        return {
            "wall_s": round(wall, 4),
            "knee_per_s": sweep.knee(False),
            "goodput": {str(int(k)): round(v, 1) for k, v in curve.items()},
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    check_or_record(BASELINE_PATH, "knee_sweep", measured)
    report_lines.append(
        f"Load: capacity knee at {measured['knee_per_s']:.0f}/s "
        f"(goodput {measured['goodput']})"
    )


def test_flash_crowd_headline(benchmark, report_lines):
    """The headline cell: unprotected goodput collapses past saturation;
    protected holds >= 80% of the pre-knee peak with bounded p99."""

    def run():
        t0 = time.perf_counter()
        pair = run_flash_crowd_pair(config=LoadConfig(n_users=10_000, seed=SEED))
        wall = time.perf_counter() - t0
        assert pair.unprotected_retention < 0.5, (
            f"unprotected flash kept {pair.unprotected_retention:.0%} of peak "
            f"goodput — the collapse this benchmark guards is gone"
        )
        assert pair.protected_retention >= 0.8, (
            f"protected flash kept only {pair.protected_retention:.0%} of peak "
            f"goodput — overload protection regressed"
        )
        assert pair.protected.p99_ms < 60_000.0  # default mail SLO p99
        return {
            "wall_s": round(wall, 4),
            "peak_goodput_per_s": round(pair.peak_goodput_per_s, 1),
            "protected_goodput_per_s": round(pair.protected.goodput_per_s, 1),
            "unprotected_goodput_per_s": round(pair.unprotected.goodput_per_s, 1),
            "protected_retention": round(pair.protected_retention, 3),
            "unprotected_retention": round(pair.unprotected_retention, 3),
            "protected_p99_ms": round(pair.protected.p99_ms, 1),
            "signatures": {
                "unprotected": pair.unprotected.signature,
                "protected": pair.protected.signature,
            },
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    check_or_record(BASELINE_PATH, "flash_crowd_pair", measured)
    report_lines.append(
        f"Load: flash crowd -> protected holds "
        f"{measured['protected_retention']:.0%} of peak goodput "
        f"({measured['protected_goodput_per_s']}/s, "
        f"p99 {measured['protected_p99_ms']:.0f} ms) vs unprotected "
        f"{measured['unprotected_retention']:.0%} "
        f"({measured['unprotected_goodput_per_s']}/s)"
    )
