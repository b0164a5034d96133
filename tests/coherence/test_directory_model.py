"""Stateful model of the coherence directory's ledger.

Hypothesis drives one :class:`CoherenceDirectory` through random
interleavings of replica registration and retirement, local updates,
flushes that succeed, lose their acknowledgement or fail, crash reports
and anti-entropy rounds, over two families whose primaries record every
version they apply.  After every step:

- no acked update is lost: every update the directory stamped is
  pending at a registered replica, stashed for replay, or admitted at
  its primary's frontier;
- no ``(origin, seq)`` is applied twice at a primary, whether by a sync
  admit or a reconcile replay;
- ``stats.recovered_updates`` equals the number of reconcile replays.

The journal and directory takeover are not modelled here.
"""

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.coherence import CoherenceDirectory, NeverPolicy, Update

FAMILIES = ("MailServer", "AddressBook")


class FakeHost:
    def on_invalidate(self, updates):
        pass


class RecordingPrimary:
    """A family's primary: records every version applied to it."""

    def __init__(self):
        self.applied = []
        self.replays = 0

    def apply_reconciled(self, update):
        self.applied.append(update.version)
        self.replays += 1
        return "applied"


def has_replicas(machine):
    return bool(machine.directory._replicas)


class DirectoryLedger(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = CoherenceDirectory()
        self.primaries = {family: RecordingPrimary() for family in FAMILIES}
        for family, primary in self.primaries.items():
            self.directory.register_primary(family, primary)
        #: version -> family of every update the directory stamped
        self.acked = {}
        self.now = 0.0

    def _pick(self, data):
        return data.draw(st.sampled_from(sorted(self.directory._replicas)))

    def _sync_admit(self, family, batch):
        """The primary's side of a sync batch: apply what admit lets in."""
        for update in batch:
            if self.directory.admit(("primary", family), update):
                self.primaries[family].applied.append(update.version)

    @rule(family=st.sampled_from(FAMILIES), trust=st.integers(1, 3))
    def register_replica(self, family, trust):
        config = ("View" + family, (("TrustLevel", trust),))
        self.directory.register_replica(
            family, config, FakeHost(), NeverPolicy(), now_ms=self.now
        )

    @precondition(has_replicas)
    @rule(data=st.data(), in_flight=st.sampled_from([None, "failed", "ack_lost"]))
    def unregister_replica(self, data, in_flight):
        """Retire a replica, optionally while a flush it drained is in
        flight; that flush then comes back after the purge."""
        replica_id = self._pick(data)
        family = self.directory.entry(replica_id).family
        batch = self.directory.drain(replica_id)[0] if in_flight else []
        self.directory.unregister_replica(replica_id)
        if in_flight == "ack_lost":
            self._sync_admit(family, batch)
        self.directory.requeue(replica_id, batch)

    @precondition(has_replicas)
    @rule(data=st.data(), n=st.integers(1, 3))
    def on_local_update(self, data, n):
        replica_id = self._pick(data)
        entry = self.directory.entry(replica_id)
        for i in range(n):
            self.now += 1.0
            self.directory.on_local_update(
                replica_id, Update("store_message", {"i": i}), self.now
            )
            self.acked[entry.pending[-1].version] = entry.family

    @precondition(has_replicas)
    @rule(data=st.data())
    def flush(self, data):
        replica_id = self._pick(data)
        batch, _ = self.directory.drain(replica_id)
        self._sync_admit(self.directory.entry(replica_id).family, batch)
        self.directory.record_flush(replica_id, self.now, batch)

    @precondition(has_replicas)
    @rule(data=st.data())
    def flush_ack_lost(self, data):
        replica_id = self._pick(data)
        batch, _ = self.directory.drain(replica_id)
        self._sync_admit(self.directory.entry(replica_id).family, batch)
        self.directory.requeue(replica_id, batch)

    @precondition(has_replicas)
    @rule(data=st.data())
    def flush_failed(self, data):
        replica_id = self._pick(data)
        batch, _ = self.directory.drain(replica_id)
        self.directory.requeue(replica_id, batch)

    @precondition(has_replicas)
    @rule(data=st.data())
    def report_lost(self, data):
        self.directory.report_lost(self._pick(data))

    @rule()
    def reconcile(self):
        self.directory.reconcile(self.now)

    @invariant()
    def no_acked_update_is_lost(self):
        directory = self.directory
        pending = {
            u.version for e in directory._replicas.values() for u in e.pending
        }
        stashed = {
            u.version for _family, held in directory._lost_buffers.values()
            for u in held
        }
        for version, family in self.acked.items():
            assert (
                version in pending
                or version in stashed
                or directory.frontier(("primary", family)).contains(*version)
            ), version

    @invariant()
    def nothing_applied_twice(self):
        for primary in self.primaries.values():
            twice = [v for v, n in Counter(primary.applied).items() if n > 1]
            assert not twice, twice

    @invariant()
    def recovered_counts_replays(self):
        replays = sum(p.replays for p in self.primaries.values())
        assert self.directory.stats.recovered_updates == replays


TestDirectoryLedger = DirectoryLedger.TestCase
TestDirectoryLedger.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
