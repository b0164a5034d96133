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
from repro.smock import LookupService


def test_default_knobs_are_byte_identical_to_omitting_them():
    bare = _run_mail("DS500")
    knobbed = _run_mail(
        "DS500",
        lookup_leases=False,
        directory_journal=False,
    )
    assert knobbed == bare


def test_single_replica_without_leases_is_the_plain_lookup_service():
    """No wrapper object, no lease loop: one host + leases off resolves
    to the original ``LookupService`` (the zero-overhead guarantee is
    structural, not just behavioural)."""
    testbed = build_mail_testbed(lookup_leases=False, directory_journal=False)
    rt = testbed.runtime
    assert type(rt.lookup) is LookupService
    assert rt.coherence.journal is None
