"""Directory-based cache coherence at view granularity (paper §3.2)."""

from .conflicts import AttributeConflictMap, ConflictMap, Update, ViewConfig
from .directory import CoherenceDirectory, CoherenceStats, ReplicaEntry
from .journal import DirectoryJournal, RecoveryReport, recover_directory
from .policies import (
    CountPolicy,
    FlushPolicy,
    NeverPolicy,
    TimePolicy,
    WriteThroughPolicy,
    policy_from_name,
)
from .reconcile import ReconcileReport, VersionVector, last_writer_wins

__all__ = [
    "CoherenceDirectory",
    "CoherenceStats",
    "ReplicaEntry",
    "DirectoryJournal",
    "RecoveryReport",
    "recover_directory",
    "ConflictMap",
    "AttributeConflictMap",
    "Update",
    "ViewConfig",
    "FlushPolicy",
    "NeverPolicy",
    "CountPolicy",
    "TimePolicy",
    "WriteThroughPolicy",
    "policy_from_name",
    "VersionVector",
    "last_writer_wins",
    "ReconcileReport",
]
