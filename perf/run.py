#!/usr/bin/env python3
"""The repo's benchmark: seven workloads, calibrated host time, layer trace.

One workload (the form ``BENCHMARK.json``'s ``command`` is run in)::

    python3 perf/run.py --workload chain_steady --seed 7 --seconds 10 --trace 0

runs in this process and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.

No ``--workload`` (or several) runs the named workloads one after
another, each in a fresh subprocess so caches and RSS do not leak
between them; ``--out FILE`` keeps the full result for ``compare.py``.
See ``perf/README.md`` for every metric and workload.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Run from a checkout: the program is imported from source, not installed.
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import compare  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

OUT_DIR = HERE / "out"
MIN_TIMED_REPS = 3
WARM_UP_SCALE = 4
IMPORT_SAMPLES = 3

#: What a process pays before it can run anything: the imports
#: ``workloads.py`` makes, timed in a fresh interpreter.  The probe
#: calibrates itself, so both samples come from the core it ran on.
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import calibrate; "
    "before = calibrate.sample(); t = time.perf_counter(); "
    "import repro.chaos, repro.experiments, repro.load, repro.services.mail, repro.sim.parallel; "
    "raw = time.perf_counter() - t; print(calibrate.calibrated(raw, before, calibrate.sample()))"
)


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles; a lone value is its own quartiles."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child, MiB
    (Linux reports ``ru_maxrss`` in KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def import_seconds(samples_wanted: int) -> List[float]:
    """Calibrated seconds a fresh interpreter spends importing the program."""
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                check=True,
                capture_output=True,
                text=True,
                timeout=120,
            ).stdout
        )
        for _ in range(samples_wanted)
    ]


class Rep:
    """One set-up -> measured phase -> collect cycle and its timings."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        scale: int,
        profiler: Optional[cProfile.Profile] = None,
    ) -> None:
        spans = self.spans = trace.Spans()
        self.profiler = profiler
        gc.collect()
        self.cal_before = calibrate.sample()
        with spans.span("rep"):
            with spans.span("setup"):
                t0 = perf_counter()
                self.state = workload.setup(seed, scale, spans)
                self.setup_raw_s = perf_counter() - t0
            with spans.span("drive"):
                t0 = perf_counter()
                if profiler is not None:
                    profiler.enable()
                parts = workload.drive(self.state, spans)
                if profiler is not None:
                    profiler.disable()
                self.drive_raw_s = perf_counter() - t0
            self.cal_after = calibrate.sample()
            with spans.span("collect"):
                self.outcome: Outcome = workload.collect(self.state)
        self.parts = parts or {}
        self.measured_raw_s = self.parts.get("measured_s", self.drive_raw_s)

    def cal(self, raw_s: float) -> float:
        return calibrate.calibrated(raw_s, self.cal_before, self.cal_after)


def run_workload(
    workload: Workload,
    spec: Dict[str, Any],
    seed: int,
    seconds: Optional[float],
    reps: Optional[int],
    scale: int,
    traced: bool,
) -> Dict[str, Any]:
    """Run one workload in this process; returns its full result."""
    problems: List[str] = []
    retried = 0

    quick = scale > 1  # --quick asks "does it still run", not "how fast"
    imports = import_seconds(1 if quick else IMPORT_SAMPLES)
    if not quick:
        # Warm-up: lazy imports, memo tables and the allocator settle
        # here.  A quarter-size rep walks the same code for a quarter of
        # the time budget; its signature is of another size and is not kept.
        problems.extend(Rep(workload, seed, WARM_UP_SCALE).outcome.problems)

    wanted = reps or (workload.reps if seconds is None else MIN_TIMED_REPS)
    # a traced run reports no end-to-end metric: the minimum of reps will do
    budget = seconds if reps is None and not traced else None
    timed: List[Rep] = []
    rss_mb = 0.0
    started = perf_counter()

    def time_left() -> bool:
        return budget is not None and perf_counter() - started < budget

    while len(timed) < wanted or time_left():
        # A drifted rep is run again only while there is time for it, and
        # never the first: peak RSS is read after exactly one full rep.
        may_retry = bool(timed) and not quick and (budget is None or time_left())
        rep, retries = calibrate.steady_rep(
            lambda: Rep(workload, seed, scale), calibrate.MAX_RETRIES if may_retry else 0
        )
        retried += retries
        if not timed:
            if workload.verify_once is not None:
                problems.extend(workload.verify_once(rep.state))
            # Read after the first full rep, so the figure does not depend
            # on how many reps the time budget allows.
            rss_mb = peak_rss_mb()
        rep.state = None  # a testbed per rep would otherwise pile up in RSS
        timed.append(rep)
    profiled = Rep(workload, seed, scale, cProfile.Profile()) if traced else None

    checked = timed + ([profiled] if profiled else [])
    for rep in checked:
        problems.extend(rep.outcome.problems)
    if len({rep.outcome.signature for rep in checked}) != 1:
        problems.append("reps of one seed produced different signatures")
    last = timed[-1].outcome
    if last.failed:
        problems.append(f"{last.failed} of {last.attempted} operations failed")

    wall = [rep.cal(rep.measured_raw_s) for rep in timed]
    import_part = statistics.median(imports)
    end_to_end = {
        "setup_s": quartiles([import_part + rep.cal(rep.setup_raw_s) for rep in timed]),
        "cal_wall_s": quartiles(wall),
        "cal_ops_per_s": quartiles([rep.outcome.ops / w for rep, w in zip(timed, wall)]),
        "peak_rss_mb": quartiles([rss_mb]),
    }
    for metric in spec["end_to_end"]:
        end_to_end[metric["name"]]["unit"] = metric["unit"]
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "op": workload.op,
        "reps": len(timed),
        "reps_retried": retried,
        "signature": last.signature,
        "attempted": last.attempted,
        "failed": last.failed,
        "correct": not problems,
        "problems": problems,
        "end_to_end": end_to_end,
        #: per rep: measured phase, set-up, calibration before and after (raw s)
        "rep_raw_s": [
            [rep.measured_raw_s, rep.setup_raw_s, rep.cal_before, rep.cal_after] for rep in timed
        ],
        "raw": {
            "wall_s": statistics.median(rep.measured_raw_s for rep in timed),
            "setup_s": statistics.median(rep.setup_raw_s for rep in timed),
            "import_s": import_part,
            "calibration_s": statistics.median(
                c for rep in timed for c in (rep.cal_before, rep.cal_after)
            ),
        },
        "sim": last.sim,
    }
    if profiled is not None:
        result["per_layer"] = per_layer_metrics(
            workload.name, seed, timed, profiled, {m["name"]: m["unit"] for m in spec["per_layer"]}
        )
    return result


def per_layer_metrics(
    name: str, seed: int, timed: Sequence[Rep], profiled: Rep, units: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, from the rep whose measured phase ran under
    cProfile and the untraced reps before it; also writes
    ``out/trace-<workload>.json``."""
    drive_s = statistics.median(rep.drive_raw_s for rep in timed)
    binds = [s for rep in timed for s in rep.outcome.bind_host_s]
    prof = trace.attribute(profiled.profiler)
    outcome, spans, entry = profiled.outcome, profiled.spans, prof["entry"]
    undeclared = (set(outcome.counts) | set(outcome.sim)) - set(units)
    if undeclared:
        raise ValueError(f"not declared in BENCHMARK.json: {sorted(undeclared)}")
    events = outcome.counts.get("sim.events", 0)
    plans = entry["planner.plan"]
    values: Dict[str, float] = dict.fromkeys(units, 0.0)
    values.update(outcome.counts)
    values.update(outcome.sim)
    for layer, row in prof["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    values.update(
        {
            # per-event cost comes from the untraced reps: the profiler
            # taxes every call
            "sim.us_per_event": drive_s * 1e6 / events if events else 0.0,
            "services.mail.crypto_calls": entry["crypto"]["calls"],
            "services.mail.crypto_host_ms": entry["crypto"]["inclusive_s"] * 1e3,
            "planner.plans": plans["calls"],
            "planner.plan_host_ms": (
                plans["inclusive_s"] * 1e3 / plans["calls"] if plans["calls"] else 0.0
            ),
            "smock.runtime.replans": entry["replan"]["calls"],
            "smock.runtime.bind_host_ms": statistics.median(binds) * 1e3 if binds else 0.0,
            "failed_ops_share": outcome.failed / outcome.attempted,
            "phase.setup_s": spans.total("setup"),
            "phase.bind_s": spans.total("bind"),
            "phase.drive_s": spans.total("drive"),
            "phase.collect_s": spans.total("collect"),
            "trace.overhead_x": profiled.drive_raw_s / drive_s,
            "trace.py_calls": prof["py_calls"],
        }
    )
    if "seq_s" in timed[0].parts:
        values["sim.parallel.seq_cal_wall_s"] = statistics.median(
            rep.cal(rep.parts["seq_s"]) for rep in timed
        )
        values["par_speedup"] = statistics.median(
            rep.parts["seq_s"] / rep.parts["measured_s"] for rep in timed
        )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{name}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "profiled_total_s": prof["total_s"],
                "layers": prof["layers"],
                "entry_points": entry,
                "counts": outcome.counts,
                "spans": spans.as_dicts(),
            },
            handle,
            indent=1,
        )
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}


def provenance() -> Dict[str, Any]:
    def git(*args: str) -> str:
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_s": calibrate.sample(),
        "cal_ref_s": calibrate.CAL_REF_S,
    }


def report(result: Dict[str, Any]) -> None:
    """Every metric by name, with unit, quartiles and rep count."""
    name = result["workload"]
    print(
        f"== {name}: seed {result['seed']}, {result['reps']} reps "
        f"({result['reps_retried']} retried), op = {result['op']}, "
        f"signature {result['signature']}"
    )
    raw = result["raw"]
    for metric, row in result["end_to_end"].items():
        note = {
            "cal_wall_s": f"  (raw {raw['wall_s']:.4f} s)",
            "setup_s": f"  (raw {raw['setup_s']:.4f} s + import {raw['import_s']:.4f} s)",
        }.get(metric, "")
        print(
            f"{name:16s} {metric:22s} {row['value']:14.4f} {row['unit']:8s} "
            f"[q1 {row['q1']:.4f}, q3 {row['q3']:.4f}; n={row['n']}]{note}"
        )
    for metric, value in result["sim"].items():
        print(f"{name:16s} {metric:22s} {value:14.4f} (simulated; repeats exactly for a seed)")
    for metric, row in result.get("per_layer", {}).items():
        print(f"{name:16s} {metric:32s} {row['value']:16.4f} {row['unit']}")
    for problem in result["problems"]:
        print(f"{name:16s} CHECK FAILED: {problem}")
    print(
        f"{name:16s} attempted {result['attempted']}, failed {result['failed']}, "
        f"{'correct' if result['correct'] else 'NOT CORRECT'}"
    )


def run_suite(names: Sequence[str], args: argparse.Namespace) -> Dict[str, Any]:
    """Each workload in its own fresh process, one at a time."""
    OUT_DIR.mkdir(exist_ok=True)
    suite: Dict[str, Any] = {"provenance": provenance(), "seed": args.seed, "workloads": {}}
    for name in names:
        part = OUT_DIR / f"part-{name}.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(part),
        ]
        for flag in ("seconds", "reps", "expect_binds"):
            if getattr(args, flag) is not None:
                command += [f"--{flag.replace('_', '-')}", str(getattr(args, flag))]
        if args.quick:
            command.append("--quick")
        part.unlink(missing_ok=True)
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        # the child's last line is the machine-readable form of the rest
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        if part.exists():
            with open(part, encoding="utf-8") as handle:
                suite["workloads"][name] = json.load(handle)
            part.unlink()
        else:
            suite["workloads"][name] = {
                "correct": False,
                "problems": [f"subprocess exited {done.returncode} without a result"],
            }
    return suite


def suite_ok(suite: Dict[str, Any]) -> bool:
    return all(w["correct"] for w in suite["workloads"].values())


def check_repeat(names: Sequence[str], args: argparse.Namespace) -> bool:
    """Two complete sets of the same code must agree within the bounds."""
    first, second = run_suite(names, args), run_suite(names, args)
    rows, exact = compare.compare(first, second, load_spec())
    compare.render(rows, exact)
    within = all(row["verdict"] != "worse" and abs(row["change"]) <= row["bound"] for row in rows)
    print(
        "check-repeat: "
        + ("every metric agrees within its bound" if within else "SOME METRIC LEFT ITS BOUND")
        + ("" if not exact else f"; {len(exact)} simulated differences")
    )
    return within and not exact and suite_ok(first) and suite_ok(second)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS), metavar="NAME")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="measure each workload for this long")
    parser.add_argument("--reps", type=int, help="measure exactly this many reps instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1)
    parser.add_argument("--out", type=Path, help="write the full result as JSON")
    parser.add_argument("--quick", action="store_true", help="1 rep, sizes / 10")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--expect-binds", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.reps = 1
    names = args.workload or list(WORKLOADS)

    if args.check_repeat:
        return 0 if check_repeat(names, args) else 1
    if len(names) > 1:
        suite = run_suite(names, args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(suite, handle, indent=1)
        print("suite: " + ("all checks passed" if suite_ok(suite) else "CHECKS FAILED"))
        return 0 if suite_ok(suite) else 1

    workloads.EXPECTED_BINDS = args.expect_binds
    result = run_workload(
        WORKLOADS[names[0]], load_spec(), args.seed, args.seconds, args.reps,
        10 if args.quick else 1, bool(args.trace),
    )
    report(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    shown = result["per_layer"] if args.trace else result["end_to_end"]
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in shown.items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
