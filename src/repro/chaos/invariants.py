"""Post-quiescence invariant checks for chaos runs.

Each check returns a list of human-readable violation strings (empty =
invariant holds).  They are deliberately *end-state* checks: the harness
runs the workload under a fault schedule, waits for the system to
quiesce (all faults healed, self-healing rounds drained, one final
anti-entropy sweep), and only then asks:

- **durability** — no acknowledged send was lost: every acked send is
  stored at the primary, with at-least-once slack only for sends whose
  ack never reached the client (client-side error, server-side apply).
- **convergence** — every live replica's store is a subset of the
  primary's, no replica still holds dirty (unflushed) updates, and no
  lost buffer remains unreconciled.
- **rebinding** — every tracked client binding points at a fully
  installed chain of live instances on up nodes.
- **lookup failover** (control-plane chaos only) — every re-lookup
  probe rebound through a *surviving* lookup replica, no lookup was
  ever served by a replica whose host was inside its crash window, and
  the failover path was actually exercised.
- **directory recovery** (control-plane chaos only) — the directory
  host's death produced a journal-driven takeover whose rebuilt
  version-vector frontiers match the pre-crash directory's exactly.

Determinism (same seed ⇒ identical run signature) is checked at the
harness level by running the case twice — ``chaos-sweep
--check-determinism``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

__all__ = [
    "check_durability",
    "check_convergence",
    "check_rebinding",
    "check_lookup_failover",
    "check_directory_recovery",
    "check_all",
]


def _store_messages(store: Any) -> Dict[str, Set[int]]:
    """user -> msg_ids held in that user's folders, minus ``sent``.

    The sent copy is sender-side bookkeeping filed only where the
    sender already has an account (``MailStore.store``), so whether a
    given store holds one is order-dependent — a replica that created
    the sender's account first legitimately holds a sent copy the
    primary lacks.  Delivery convergence is about the recipient-facing
    folders.
    """
    held: Dict[str, Set[int]] = {}
    for user in store.users():
        box = store.mailbox(user)
        held[user] = {
            msg.msg_id
            for name, folder in box.folders.items()
            if name != "sent"
            for msg in folder
        }
    return held


def check_durability(
    runtime: Any, acked_sends: int, attempted_sends: int
) -> List[str]:
    """No acked send lost; no send applied more than once."""
    violations: List[str] = []
    primary = runtime.instance_of("MailServer")
    stats = runtime.coherence.stats
    stored = primary.store.messages_stored
    if stored + stats.lost_updates < acked_sends:
        violations.append(
            f"durability: {acked_sends} sends acked but only {stored} stored "
            f"at the primary (+{stats.lost_updates} accounted lost)"
        )
    if stored > attempted_sends:
        violations.append(
            f"durability: {stored} messages stored at the primary but only "
            f"{attempted_sends} sends were ever attempted (double-apply)"
        )
    if stats.lost_updates:
        violations.append(
            f"durability: {stats.lost_updates} updates still lost after the "
            f"final anti-entropy sweep (all faults were healed)"
        )
    return violations


def check_convergence(runtime: Any) -> List[str]:
    """Replica stores ⊆ primary store; nothing dirty or lost remains."""
    violations: List[str] = []
    directory = runtime.coherence
    primary = runtime.instance_of("MailServer")
    primary_held = _store_messages(primary.store)
    for instance in runtime.instances.values():
        replica_id = instance.replica_id
        if replica_id is None or instance.failed:
            continue
        store = getattr(instance, "store", None)
        if store is None:
            continue
        for user, held in _store_messages(store).items():
            missing = held - primary_held.get(user, set())
            if missing:
                violations.append(
                    f"convergence: {instance.label} holds {sorted(missing)} "
                    f"for {user} that never reached the primary"
                )
        entry = directory._replicas.get(replica_id)
        if entry is not None and entry.pending_units:
            violations.append(
                f"convergence: {instance.label} still dirty "
                f"({entry.pending_units} pending units) after quiescence"
            )
    if directory.has_lost_buffers:
        violations.append(
            "convergence: lost buffers remain unreconciled after quiescence"
        )
    return violations


def check_rebinding(runtime: Any, replanner: Any) -> List[str]:
    """Every tracked binding resolves to a live, installed chain."""
    violations: List[str] = []
    for binding in replanner.bindings:
        client = binding.request.client_node
        for placement in binding.plan.placements:
            instance = runtime.instances.get(placement.key)
            if instance is None:
                violations.append(
                    f"rebinding: {client} bound to {placement.unit}@"
                    f"{placement.node} which is not installed"
                )
                continue
            if instance.failed:
                violations.append(
                    f"rebinding: {client} bound to failed instance "
                    f"{instance.label}"
                )
            elif not instance.node.up:
                violations.append(
                    f"rebinding: {client} bound to {instance.label} on a "
                    f"down host"
                )
    return violations


def check_lookup_failover(
    runtime: Any,
    reconnects: List[Dict[str, Any]],
    outages: Dict[str, Tuple[float, float]],
) -> List[str]:
    """Clients rebound through a surviving lookup replica.

    ``reconnects`` are the harness's re-lookup probe records (one per
    site, scheduled while the lookup primary is down); ``outages`` maps
    each crashed control-plane host to its ``(crash_ms, restart_ms)``
    window from the fault plan.
    """
    violations: List[str] = []
    lookup = runtime.lookup
    for rec in reconnects:
        if not rec.get("ok"):
            violations.append(
                f"lookup-failover: client on {rec['node']} never rebound "
                f"({rec.get('error', 'no attempt recorded')})"
            )
    for host in sorted(outages):
        start, end = outages[host]
        served = [
            t for t, _client, serving in lookup.lookup_log
            if serving == host and start <= t < end
        ]
        if served:
            violations.append(
                f"lookup-failover: {len(served)} lookup(s) served by {host} "
                f"inside its crash window [{start:.0f}ms, {end:.0f}ms)"
            )
    if not lookup.failovers:
        violations.append(
            "lookup-failover: the lookup primary crashed but no lookup "
            "ever failed over to a surviving replica"
        )
    return violations


def check_directory_recovery(runtime: Any, crashed_host: str) -> List[str]:
    """The directory host's death produced a consistent takeover."""
    takeovers = [
        t for t in runtime.directory_takeovers
        if t["crashed_host"] == crashed_host
    ]
    if not takeovers:
        return [
            f"directory-recovery: {crashed_host} crashed but no directory "
            f"takeover was recorded"
        ]
    violations: List[str] = []
    for takeover in takeovers:
        report = takeover["report"]
        if report.frontier_mismatches:
            violations.append(
                f"directory-recovery: takeover at "
                f"t={takeover['time_ms']:.0f}ms rebuilt divergent frontiers: "
                f"{report.frontier_mismatches}"
            )
        if takeover["new_host"] == crashed_host:
            violations.append(
                f"directory-recovery: takeover re-elected the crashed host "
                f"{crashed_host}"
            )
    if runtime.coherence.journal is None:
        violations.append(
            "directory-recovery: recovered directory has no journal (a "
            "second crash would be unrecoverable)"
        )
    return violations


def check_all(
    runtime: Any, replanner: Any, acked_sends: int, attempted_sends: int
) -> List[str]:
    return (
        check_durability(runtime, acked_sends, attempted_sends)
        + check_convergence(runtime)
        + check_rebinding(runtime, replanner)
    )
