"""Leased registrations and lookup replication (paper §3.2, Jini model).

The paper's lookup service is Jini-like, and Jini registrations are
*leases*: a service that stops renewing disappears from the namespace on
its own, with no administrator in the loop.  This module supplies the
two pieces the reproduction was missing:

* :class:`Lease` / :class:`LeaseConfig` — sim-clock-driven lease state
  with skew-safe renewal (a renewal never *shortens* a lease, so a
  replica whose heartbeat arrives "from the past" after a clock
  adjustment cannot accidentally expire a live service).

* :class:`ReplicatedLookup` — N :class:`~repro.smock.lookup.LookupService`
  replicas kept convergent by registration gossip piggybacked on the
  lease-renewal heartbeats, with client ``lookup()`` failing over
  primary-first to a surviving replica when the bound lookup host is
  dead or partitioned.

Knob discipline: the lookup's address is ``lookup_hosts`` alone (its
first entry; without it, the runtime's ``server_node``).  With at most
one lookup host and ``lookup_leases`` off, ``SmockRuntime()`` never
constructs any of this and builds the plain singleton ``LookupService``
(pinned by ``tests/integration/test_control_plane_identity.py``).
``lookup_leases`` takes ``False``/``None`` or a :class:`LeaseConfig`.

Witness rule: a replica only *reports* a lease expiry (the event that
triggers a replan/rebind round) if its own host stayed up since the
lease was last renewed.  A host that was itself crashed or rebooted
cannot testify that the silence it observed was the service's fault —
the missing renewals are equally explained by its own downtime, so it
purges quietly and waits for the next heartbeat to re-register the
service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from ..network import NetworkError
from ..sim import FaultError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lookup import LookupService, ServiceRegistration
    from .proxy import GenericProxy
    from .runtime import SmockRuntime

__all__ = ["Lease", "LeaseConfig", "ReplicatedLookup"]

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


class ReplicatedLookup:
    """A lookup *cluster*: per-host replicas, gossip, leases, failover.

    Exposes the same surface the runtime and clients use on the
    singleton :class:`~repro.smock.lookup.LookupService` (``register`` /
    ``find`` / ``lookup`` / ``host_node`` / ``lookups``), so everything
    downstream — ``client_connect``, chaos, benchmarks — works
    unchanged whichever one the knobs selected.
    """

    def __init__(
        self,
        runtime: "SmockRuntime",
        hosts: List[str],
        lease_config: Optional[LeaseConfig] = None,
    ) -> None:
        from .lookup import LookupService  # local import: avoid cycle

        if not hosts:
            raise ValueError("ReplicatedLookup needs at least one host")
        seen: List[str] = []
        for host in hosts:
            if host in seen:
                raise ValueError(f"duplicate lookup host {host!r}")
            runtime.transport.node(host)  # raises KeyError for unknown nodes
            seen.append(host)
        self.runtime = runtime
        self.lease_config = lease_config
        self.replicas: List[LookupService] = [
            LookupService(runtime, host) for host in hosts
        ]
        for replica in self.replicas:
            replica.lease_config = lease_config
        #: compatibility: the cluster "is" its primary replica's host for
        #: code that reads ``runtime.lookup.host_node``.
        self.host_node = hosts[0]
        self.lookups = 0
        self.failovers = 0
        #: ``(sim_ms, client_node, serving_host)`` per successful lookup —
        #: the chaos invariants read this to prove clients rebound
        #: through a *surviving* replica during control-plane outages.
        self.lookup_log: List[Tuple[float, str, str]] = []
        #: set by ``enable_self_healing``: called as ``fn(name, alive)``
        #: when a lease lapses (``False``) or is re-granted after a lapse
        #: (``True``); feeds the replan loop via the network monitor.
        self.on_lease_event: Optional[Callable[[str, bool], None]] = None
        #: registered service → home node its renewals originate from.
        self._homes: Dict[str, str] = {}
        #: authoritative (attributes, proxy_code_bytes) per service, so a
        #: heartbeat can re-create a registration a replica purged while
        #: its host was down.
        self._specs: Dict[str, Tuple[Dict[str, Any], int]] = {}
        self._running = False
        self._proc: Optional[Any] = None

    # -- registration ------------------------------------------------------------
    @property
    def hosts(self) -> List[str]:
        return [replica.host_node for replica in self.replicas]

    @property
    def reregistrations(self) -> int:
        return self.replicas[0].reregistrations

    def register(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        proxy_code_bytes: Optional[int] = None,
        *,
        home_node: Optional[str] = None,
    ) -> "ServiceRegistration":
        """Register on the primary replica, gossip to the others.

        The primary gets full :meth:`LookupService.register` semantics
        (renewal-on-duplicate, the re-registration counter and warning);
        the secondaries absorb silently — gossip must not triple-count
        one application-level registration.
        """
        from .lookup import DEFAULT_PROXY_CODE_BYTES

        if proxy_code_bytes is None:
            proxy_code_bytes = DEFAULT_PROXY_CODE_BYTES
        home = home_node or self._homes.get(name) or self.runtime.server_node
        reg = self.replicas[0].register(
            name, attributes, proxy_code_bytes, home_node=home
        )
        for replica in self.replicas[1:]:
            replica.absorb(
                name, reg.attributes, reg.proxy_code_bytes, home, self.runtime.sim.now
            )
        self._homes[name] = home
        self._specs[name] = (dict(reg.attributes), reg.proxy_code_bytes)
        self._ensure_lease_loop()
        return reg

    def find(self, query: Dict[str, Any]) -> List["ServiceRegistration"]:
        """Query the first replica on a live host (reads are local)."""
        now = self.runtime.sim.now
        for replica in self.replicas:
            if self.runtime.transport.node(replica.host_node).up:
                return replica.find(query, now_ms=now)
        return self.replicas[0].find(query, now_ms=now)

    # -- client path -------------------------------------------------------------
    def lookup(
        self,
        client_node: str,
        name: Optional[str] = None,
        query: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, "GenericProxy"]:
        """Locate the service, trying replicas primary-first.

        A replica is skipped — and the next one tried — when its host is
        down, the proxy download fails en route (crash or partition), or
        the registration is missing/expired there while a sibling still
        holds it.  Raises the last error when every replica fails.
        """
        from .proxy import GenericProxy  # local import: avoid cycle

        self.lookups += 1
        self.runtime.obs.metrics.inc("smock.lookups")
        transport = self.runtime.transport
        last_error: Optional[BaseException] = None
        for index, replica in enumerate(self.replicas):
            host = replica.host_node
            if not transport.node(host).up:
                last_error = FaultError(f"lookup replica host {host!r} is down")
                continue
            try:
                reg = replica.resolve(name=name, query=query)
            except KeyError as exc:  # LookupError: not registered *here*
                last_error = exc
                continue
            try:
                yield from transport.deliver(host, client_node, reg.proxy_code_bytes)
            except (NetworkError, FaultError) as exc:
                last_error = exc
                continue
            if index > 0:
                self.failovers += 1
                self.runtime.obs.metrics.inc("smock.lookup.failovers")
            self.lookup_log.append((self.runtime.sim.now, client_node, host))
            return GenericProxy(self.runtime, reg, client_node)
        if last_error is not None:
            raise last_error
        from .lookup import LookupError

        raise LookupError(f"no service registered as {name!r}")

    # -- lease machinery ---------------------------------------------------------
    def _ensure_lease_loop(self) -> None:
        if self.lease_config is None or self._running:
            return
        self._running = True
        self._proc = self.runtime.sim.process(self._lease_loop(), name="lookup-leases")

    def stop(self) -> None:
        """Stop renewing/sweeping (lets a bare ``sim.run()`` drain)."""
        self._running = False

    def _lease_loop(self) -> Generator[Any, Any, None]:
        """One heartbeat per interval per (service, replica) pair, then an
        expiry sweep.  Renewals originate from each service's *home* node
        — a crashed home stops renewing and its leases lapse, which is
        the whole point."""
        assert self.lease_config is not None
        sim = self.runtime.sim
        transport = self.runtime.transport
        interval = self.lease_config.duration_ms / RENEWALS_PER_LEASE
        while self._running:
            yield sim.timeout(interval)
            if not self._running:
                return
            for name in sorted(self._homes):
                home = self._homes[name]
                if not transport.node(home).up:
                    continue  # dead services do not renew
                for replica in self.replicas:
                    host = transport.node(replica.host_node)
                    if not host.up:
                        continue
                    try:
                        yield from transport.deliver(
                            home, replica.host_node, RENEWAL_BYTES
                        )
                    except (NetworkError, FaultError):
                        continue  # crashed or partitioned mid-flight
                    attributes, code_bytes = self._specs[name]
                    regrant = replica.absorb(
                        name,
                        attributes,
                        code_bytes,
                        home,
                        sim.now,
                        witness_crashes=host.crashes,
                    )
                    if regrant and self.on_lease_event is not None:
                        # Re-granted after a lapse: the service is back.
                        self.on_lease_event(name, True)
            for replica in self.replicas:
                host = transport.node(replica.host_node)
                if not host.up:
                    continue  # a crashed replica cannot sweep
                for name, witnessed in replica.purge_expired(
                    sim.now, host_crashes=host.crashes
                ):
                    if witnessed and self.on_lease_event is not None:
                        self.on_lease_event(name, False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicatedLookup hosts={self.hosts} "
            f"leases={'on' if self.lease_config else 'off'} "
            f"lookups={self.lookups} failovers={self.failovers}>"
        )
