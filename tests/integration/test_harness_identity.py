"""Golden pin of everything the experiment harnesses report.

``run_chaos_case``, ``run_load_cell``, ``run_scenario`` and the
``mail`` / ``chaos-sweep`` / ``load-sweep`` commands all walk the same
lifecycle — build the testbed, connect clients, start workloads, inject
faults, drive to quiescence, converge, grade.
``golden/harness_identity.json`` records, from the commit *before* that
lifecycle moved onto :class:`~repro.experiments.MailTestbed`, what each
of them reports: chaos signatures (plain, control-plane, a
load x fault x protection x autonomic composite),
two load cells field by field, two Figure 7 cells, and the stdout plus
artifact files of four CLI invocations.  Every section must stay
byte-identical; a harness refactor that moves one has changed a run.

Message ids and key counters are process-global, so the record keeps
only what the harnesses already report identity-free.

Regenerate (only when a run is *meant* to change) with
``PYTHONPATH=src python tests/integration/test_harness_identity.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.chaos import ChaosCaseConfig, run_chaos_case
from repro.experiments import run_scenario
from repro.load import LoadConfig, run_load_cell
from repro.sim import FlashCrowdProcess, PoissonProcess

GOLDEN = Path(__file__).parent / "golden" / "harness_identity.json"

SEEDS = (0, 1, 2, 3)


def _chaos_record(result):
    return {
        "signature": result.signature,
        "plan": result.plan,
        "violations": result.violations,
        "acked": result.acked_sends,
        "attempted": result.attempted_sends,
        "finished": result.finished,
        "stats": result.stats,
    }


def chaos_default(_tmp):
    return [_chaos_record(run_chaos_case(seed)) for seed in SEEDS]


def chaos_control_plane(_tmp):
    config = ChaosCaseConfig(crash_control_plane=True)
    return [
        {**_chaos_record(result), "control_plane": result.control_plane}
        for result in (run_chaos_case(seed, config) for seed in SEEDS)
    ]


def chaos_composite(_tmp):
    result = run_chaos_case(3, ChaosCaseConfig(
        load_rate_per_s=40, load_arrival="flash", overload_protection=True,
        autonomic=True, telemetry_interval_ms=500, slo="default",
    ))
    return {
        **_chaos_record(result),
        "load": result.load,
        "slo_report": result.slo_report,
        "flight_len": len(result.flight),
        "flight_dropped": result.flight_dropped,
        "flight_events": [
            [r["t_ms"], r["name"]] for r in result.flight if r["kind"] == "event"
        ],
    }


def load_flash_autonomic(_tmp):
    cell = run_load_cell(
        FlashCrowdProcess(
            70.0, 400.0, at_ms=2_000.0, ramp_ms=1_000.0, hold_ms=4_000.0,
            decay_ms=1_000.0, seed=43,
        ),
        config=LoadConfig(
            duration_ms=8_000.0, drain_ms=25_000.0, n_users=2_000, seed=43
        ),
        protection=True, autonomic=True, slo="default", label="flash-autonomic",
    )
    return cell.as_dict()


def load_poisson(_tmp):
    cell = run_load_cell(
        PoissonProcess(60.0, seed=9),
        config=LoadConfig(
            duration_ms=5_000.0, drain_ms=15_000.0, n_users=500, seed=9
        ),
    )
    return cell.as_dict()


def fig7(_tmp):
    cells = [run_scenario("DS500", 3), run_scenario("SS", 2)]
    return [
        {
            "scenario": c.scenario,
            "mean_send_ms": c.mean_send_ms,
            "mean_receive_ms": c.mean_receive_ms,
            "per_client_send_ms": c.per_client_send_ms,
            "bind_total_ms": c.bind_total_ms,
            "coherence_syncs": c.coherence_syncs,
            "errors": c.errors,
        }
        for c in cells
    ]


def _cli(tmp: Path, argv):
    """Run one command; returns exit code, stdout and the files it wrote
    (name -> sha256), with ``tmp`` spelt ``<tmp>`` throughout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([arg.replace("<tmp>", str(tmp)) for arg in argv])
    return {
        "rc": rc,
        "stdout": out.getvalue().replace(str(tmp), "<tmp>").splitlines(),
        "files": {
            str(path.relative_to(tmp)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp.rglob("*"))
            if path.is_file()
        },
    }


def cli_mail(tmp):
    return _cli(tmp, ["mail"])


def cli_mail_chaos(tmp):
    return _cli(tmp, [
        "mail", "--chaos", "crash:sandiego-gw@1000",
        "--chaos", "restart:sandiego-gw@9000",
        "--chaos", "drop:seattle-gw/newyork-gw:0.3@2000-6000",
        "--slo", "default", "--autonomic",
        "--slo-report", "<tmp>/out/slo.json",
    ])


def cli_chaos_sweep(tmp):
    return _cli(tmp, [
        "chaos-sweep", "--seeds", "2", "--check-determinism",
        "--artifacts", "<tmp>/art", "--slo", "default",
    ])


def cli_load_sweep(tmp):
    return _cli(tmp, [
        "load-sweep", "--autonomic", "--slo", "default",
        "--duration", "8000", "--drain", "25000", "--users", "2000",
        "--seed", "43", "--peak-rate", "400", "--flash-at", "2000",
        "--ramp", "1000", "--hold", "4000", "--decay", "1000",
        "--output", "<tmp>/out/goodput.json",
        "--slo-report", "<tmp>/out/slo.json",
        "--flight", "<tmp>/out/flight.jsonl",
    ])


SECTIONS = {
    fn.__name__: fn
    for fn in (
        chaos_default, chaos_control_plane, chaos_composite,
        load_flash_autonomic, load_poisson, fig7,
        cli_mail, cli_mail_chaos, cli_chaos_sweep, cli_load_sweep,
    )
}


def _as_json(value):
    """Tuples become lists; floats survive ``repr`` round-trips exactly."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("section", SECTIONS)
def test_section_matches_golden(section, tmp_path):
    want = json.loads(GOLDEN.read_text())[section]
    assert _as_json(SECTIONS[section](tmp_path)) == want


def test_golden_has_no_stale_section():
    assert set(json.loads(GOLDEN.read_text())) == set(SECTIONS)


if __name__ == "__main__":
    recorded = {}
    for name, fn in SECTIONS.items():
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = fn(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
