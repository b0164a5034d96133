"""Versioning must be invisible on the fault-free path.

Partition tolerance (version stamps, frontiers, anti-entropy stashes,
degraded reads) is bought with the promise that a healthy run is
untouched: with no fault firing it adds zero simulated cost.  The
``ds500_signature`` golden (``test_fast_path_determinism.py``) pins the
full DS500 signature, equal to that of the same run without version
stamps; this test pins that the machinery stays dormant on such a run.

(The promise is deliberately scoped to fault-free runs: once a fault
hook is installed, sync RPCs race a timeout so a silently dropped flush
cannot strand its batch forever.)
"""

from __future__ import annotations


def test_versioned_on_is_pure_bookkeeping_without_faults():
    """The versioned machinery stays dormant on a healthy run: stamps
    exist, but no duplicate is ever rejected, nothing goes degraded,
    nothing is lost or recovered — the zero-overhead claim is not
    vacuous."""
    from repro.experiments.mail_setup import build_mail_testbed
    from repro.experiments.scenarios_fig7 import SCENARIOS, _bind_clients
    from repro.services.mail import WorkloadConfig, mail_workload

    scenario = SCENARIOS["DS500"]
    testbed = build_mail_testbed(flush_policy=scenario.flush_policy)
    runtime = testbed.runtime
    (proxy,) = _bind_clients(testbed, scenario, 1)
    cfg = WorkloadConfig(
        user=proxy.user, peers=[proxy.user], n_sends=40, n_receives=3, seed=0
    )
    proc = runtime.sim.process(mail_workload(proxy, cfg))
    runtime.sim.run()
    assert not proc.failed
    st = runtime.coherence.stats
    assert st.local_updates > 0  # stamped traffic actually flowed
    assert st.duplicates_rejected == 0
    assert st.degraded_reads == 0 and st.degraded_writes == 0
    assert st.lost_updates == 0 and st.recovered_updates == 0
    assert not runtime.coherence.has_lost_buffers
