"""Default-off control-plane knobs are byte-identical to their absence.

A single lookup host with leases and the directory journal off must
produce *exactly* the run that predates the control-plane work: same
event count, same sequence counter, same delivered set, same metrics.
This is the signature pin the acceptance criteria name — any stray
timer, heartbeat, or journal event the knobs leak in their off position
breaks it.
"""

from .test_fast_path_determinism import _run_mail

from repro.experiments.mail_setup import build_mail_testbed
from repro.sim import Simulator
from repro.smock import LookupService


def test_default_knobs_are_byte_identical_to_omitting_them():
    bare = _run_mail("DS500")
    knobbed = _run_mail(
        "DS500",
        lookup_leases=False,
        directory_journal=False,
    )
    assert knobbed == bare


def test_single_replica_without_leases_is_the_plain_lookup_service(monkeypatch):
    """One host + leases off is the N = 1 lookup: one registry, no lease
    config, no renewal loop ever spawned, no journal — the zero-overhead
    guarantee is structural, not just behavioural."""
    spawned = []
    spawn = Simulator.process

    def recording(sim, generator, name=None):
        spawned.append(name)
        return spawn(sim, generator, name=name)

    monkeypatch.setattr(Simulator, "process", recording)
    testbed = build_mail_testbed(lookup_leases=False, directory_journal=False)
    rt = testbed.runtime
    testbed.connect("sandiego-client1", "Bob")
    assert type(rt.lookup) is LookupService
    assert rt.lookup.hosts == [rt.server_node]
    assert rt.lookup.lease_config is None
    assert spawned and "lookup-leases" not in spawned
    assert rt.coherence.journal is None
