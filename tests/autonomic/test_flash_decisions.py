"""Pin of the autonomic loop's decisions on one seeded flash crowd.

``golden/flash_decisions.json`` was recorded at commit 356d544 from the
cell below: two scale-outs by different rules, flushes and a scale-in.
Every decision instant, the rule and series that fired it, the value it
saw and the instances it installed or retired depend on the loop's
cooldowns, headroom, rate window, idle floor, drain bounds and the stock
threshold rules, so a moved constant shows here.  Re-record by running
this file as a script, only when a decision is meant to change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.load import LoadConfig, run_load_cell
from repro.sim import FlashCrowdProcess

GOLDEN = Path(__file__).parent / "golden" / "flash_decisions.json"


def _record():
    cell = run_load_cell(
        FlashCrowdProcess(
            70.0, 400.0, at_ms=2_000.0, ramp_ms=1_000.0, hold_ms=4_000.0,
            decay_ms=1_000.0, seed=43,
        ),
        config=LoadConfig(
            duration_ms=20_000.0, drain_ms=25_000.0, n_users=2_000, seed=43
        ),
        protection=True,
        autonomic=True,
    )
    summary = cell.autonomic
    return {
        "signature": cell.signature,
        "signals": summary["signals"],
        "suppressed": summary["suppressed"],
        "events": [
            {
                "time_ms": event["time_ms"],
                "action": event["action"],
                "rule": event["rule"],
                "series": event["series"],
                "value": event["value"],
                "installed": len(event["installed"]),
                "retired": len(event["retired"]),
            }
            for event in summary["events"]
        ],
    }


def test_flash_decisions_match_the_recorded_golden():
    assert _record() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
