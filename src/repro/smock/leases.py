"""Leased registrations (paper §3.2, Jini model).

The paper's lookup service is Jini-like, and Jini registrations are
*leases*: a service that stops renewing disappears from the namespace on
its own, with no administrator in the loop.  :class:`Lease` /
:class:`LeaseConfig` are the sim-clock-driven lease state with
skew-safe renewal (a renewal never *shortens* a lease, so a host whose
heartbeat arrives "from the past" after a clock adjustment cannot
accidentally expire a live service); the renewal loop that drives them
lives on :class:`~repro.smock.lookup.LookupService`, which runs it only
when given a :class:`LeaseConfig`.

Witness rule: a lookup host only *reports* a lease expiry (the event
that triggers a replan/rebind round) if it stayed up since the lease
was last renewed.  A host that was itself crashed or rebooted cannot
testify that the silence it observed was the service's fault — the
missing renewals are equally explained by its own downtime, so it
purges quietly and waits for the next heartbeat to re-register the
service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Lease", "LeaseConfig"]

#: renewal heartbeats per lease duration: two consecutive heartbeats can
#: be lost before a lease lapses
RENEWALS_PER_LEASE = 3.0
#: simulated size of one renewal message
RENEWAL_BYTES = 128


@dataclass
class LeaseConfig:
    """Tunables for leased registrations.

    ``duration_ms`` is how long a registration survives without a
    renewal; each registration is renewed every
    ``duration_ms / RENEWALS_PER_LEASE``.
    """

    duration_ms: float = 10_000.0

    def __post_init__(self) -> None:
        if not self.duration_ms > 0:
            raise ValueError(f"duration_ms must be positive, got {self.duration_ms}")

    @classmethod
    def coerce(cls, value: Any) -> Optional["LeaseConfig"]:
        """``False``/``None`` → no leases; a :class:`LeaseConfig` passes
        through."""
        if not value:
            return None
        if isinstance(value, LeaseConfig):
            return value
        raise TypeError(f"cannot interpret {value!r} as a LeaseConfig")


@dataclass
class Lease:
    """Lease state for one registration at one lookup replica."""

    granted_at_ms: float
    duration_ms: float
    expires_at_ms: float
    renewed_at_ms: float
    renewals: int = 0
    #: the replica host's crash count at the last renewal; expiry is
    #: only *reported* when the host's count is unchanged (see module
    #: docstring, "witness rule").
    witness_crashes: int = 0

    @classmethod
    def grant(cls, now_ms: float, duration_ms: float, witness_crashes: int = 0) -> "Lease":
        return cls(
            granted_at_ms=now_ms,
            duration_ms=duration_ms,
            expires_at_ms=now_ms + duration_ms,
            renewed_at_ms=now_ms,
            witness_crashes=witness_crashes,
        )

    def renew(self, now_ms: float, witness_crashes: Optional[int] = None) -> None:
        """Extend the lease; skew-safe — never shortens ``expires_at_ms``."""
        self.expires_at_ms = max(self.expires_at_ms, now_ms + self.duration_ms)
        self.renewed_at_ms = max(self.renewed_at_ms, now_ms)
        self.renewals += 1
        if witness_crashes is not None:
            self.witness_crashes = witness_crashes

    def expired(self, now_ms: float) -> bool:
        return now_ms >= self.expires_at_ms
