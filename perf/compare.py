#!/usr/bin/env python3
"""Compare two ``run.py --out`` files: ``python3 perf/compare.py A.json B.json``.

A is the base of every ratio.  Simulated differences (a changed
``signature`` or ``sim_*`` value) are printed first: they compare
exactly, and a change meant only to make the simulator faster must
leave them identical.  Then one row per (workload, end-to-end metric):
both medians with quartiles, B/A, the metric's bound and a verdict —

- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: it is not, but the reps of A or B spread wider than
  the bound, so "unchanged" cannot be claimed either;
- ``better``: B's median is better by more than the bound;
- ``same``: within the bound, both ways.

Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["compare", "render"]


def _workloads(doc: Dict[str, Any]) -> Dict[str, Any]:
    """A suite file's workloads; a single-workload file counts as a suite of one."""
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def _exact(result: Dict[str, Any]) -> Dict[str, Any]:
    """What must repeat exactly: the simulated statistics and, when both
    sides were traced, the number of profiled calls."""
    values = dict(result["sim"])
    if "per_layer" in result:
        values["trace.py_calls"] = result["per_layer"]["trace.py_calls"]["value"]
    return values


def _spread(row: Dict[str, float]) -> float:
    return (row["q3"] - row["q1"]) / row["value"] if row["value"] else 0.0


def compare(
    a_doc: Dict[str, Any], b_doc: Dict[str, Any], spec: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Rows for every (workload, end-to-end metric) both files hold, and
    the list of exact (simulated) differences."""
    a_all, b_all = _workloads(a_doc), _workloads(b_doc)
    rows: List[Dict[str, Any]] = []
    exact: List[str] = []
    for name, a in a_all.items():
        b = b_all.get(name)
        if b is None or "end_to_end" not in a or "end_to_end" not in b:
            continue
        if a["signature"] != b["signature"]:
            exact.append(f"{name}: signature {a['signature']} -> {b['signature']}")
        a_exact, b_exact = _exact(a), _exact(b)
        for key in sorted(set(a_exact) | set(b_exact)):
            if a_exact.get(key) != b_exact.get(key):
                exact.append(f"{name}: {key} {a_exact.get(key)!r} -> {b_exact.get(key)!r}")
        for metric in spec["end_to_end"]:
            ra, rb = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            change = (rb["value"] - ra["value"]) / ra["value"]
            if metric["better"] == "higher":
                change = -change
            spread = max(_spread(ra), _spread(rb))
            if change > metric["bound"]:
                verdict = "worse"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            elif change < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "a": ra,
                    "b": rb,
                    "ratio": rb["value"] / ra["value"],
                    #: share of A by which B is worse (negative = better)
                    "change": change,
                    "spread": spread,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows, exact


def render(rows: Sequence[Dict[str, Any]], exact: Sequence[str]) -> None:
    for line in exact:
        print(f"SIMULATED DIFFERENCE  {line}")
    if not exact:
        print("simulated statistics and signatures identical")
    print(
        f"{'workload':16s} {'metric':14s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'worse by':>9s} {'spread':>7s} "
        f"{'bound':>6s}  verdict"
    )
    for row in rows:
        a, b = row["a"], row["b"]
        print(
            f"{row['workload']:16s} {row['metric']:14s} "
            f"{a['value']:12.4f} [{a['q1']:9.4f},{a['q3']:9.4f}] "
            f"{b['value']:12.4f} [{b['q1']:9.4f},{b['q3']:9.4f}] "
            f"{row['ratio']:7.3f} {row['change']:+9.1%} {row['spread']:7.1%} "
            f"{row['bound']:6.0%}  {row['verdict']}"
        )


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows, exact = compare(docs[0], docs[1], spec)
    render(rows, exact)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
