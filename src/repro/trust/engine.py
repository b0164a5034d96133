"""The trust engine: role-closure queries over delegation graphs.

Answers "which roles does subject X hold at time t?" by forward chaining
from X's attribution credentials through valid delegation credentials,
honoring namespace authorities and revocation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from .credentials import Credential, Role, TrustError

__all__ = ["TrustEngine"]


class TrustEngine:
    """Credential store + role-closure evaluator."""

    def __init__(self) -> None:
        self._authorities: Dict[str, str] = {}
        self._credentials: List[Credential] = []
        self._revoked: Set[int] = set()

    # -- authorities ---------------------------------------------------------
    def register_authority(self, namespace: str, authority: str) -> None:
        """Declare who may issue credentials for ``namespace``."""
        if namespace in self._authorities:
            raise TrustError(f"namespace {namespace!r} already has an authority")
        self._authorities[namespace] = authority

    # -- issuance ------------------------------------------------------------
    def issue(self, credential: Credential) -> Credential:
        """Accept a credential if its issuer owns the role's namespace."""
        authority = self._authorities.get(credential.role.namespace)
        if authority is None:
            raise TrustError(
                f"no authority registered for namespace {credential.role.namespace!r}"
            )
        if credential.issuer != authority:
            raise TrustError(
                f"{credential.issuer!r} may not issue for namespace "
                f"{credential.role.namespace!r} (authority is {authority!r})"
            )
        self._credentials.append(credential)
        return credential

    def attribute(
        self,
        subject: str,
        role: Role | str,
        issuer: Optional[str] = None,
        valid_from: Optional[float] = None,
        valid_until: Optional[float] = None,
    ) -> Credential:
        """Convenience: issue an attribution credential."""
        role = Role.parse(role) if isinstance(role, str) else role
        issuer = issuer or self._authorities.get(role.namespace, "")
        return self.issue(
            Credential(
                role=role,
                issuer=issuer,
                subject=subject,
                valid_from=valid_from,
                valid_until=valid_until,
            )
        )

    def delegate(
        self,
        from_role: Role | str,
        to_role: Role | str,
        issuer: Optional[str] = None,
        valid_from: Optional[float] = None,
        valid_until: Optional[float] = None,
    ) -> Credential:
        """Convenience: issue a delegation (translation) credential."""
        from_role = Role.parse(from_role) if isinstance(from_role, str) else from_role
        to_role = Role.parse(to_role) if isinstance(to_role, str) else to_role
        issuer = issuer or self._authorities.get(to_role.namespace, "")
        return self.issue(
            Credential(
                role=to_role,
                issuer=issuer,
                from_role=from_role,
                valid_from=valid_from,
                valid_until=valid_until,
            )
        )

    def revoke(self, credential: Credential) -> None:
        """Revoke by serial; takes effect on the next query."""
        self._revoked.add(credential.serial)

    # -- queries ------------------------------------------------------------
    def _live(self, now: Optional[float]) -> List[Credential]:
        return [
            c
            for c in self._credentials
            if c.serial not in self._revoked and c.valid_at(now)
        ]

    def roles_of(self, subject: str, now: Optional[float] = None) -> Set[Role]:
        """Role closure of ``subject`` at time ``now`` (forward chaining)."""
        live = self._live(now)
        held: Set[Role] = {
            c.role for c in live if c.subject == subject
        }
        delegations: Dict[Role, List[Role]] = {}
        for c in live:
            if c.from_role is not None:
                delegations.setdefault(c.from_role, []).append(c.role)
        queue = deque(held)
        while queue:
            role = queue.popleft()
            for target in delegations.get(role, ()):
                if target not in held:
                    held.add(target)
                    queue.append(target)
        return held

    def holds(self, subject: str, role: Role | str, now: Optional[float] = None) -> bool:
        role = Role.parse(role) if isinstance(role, str) else role
        return role in self.roles_of(subject, now)

    def chain(
        self, subject: str, role: Role | str, now: Optional[float] = None
    ) -> Optional[List[Credential]]:
        """A witnessing credential chain from subject to role, or None.

        BFS over live credentials; the returned list starts with an
        attribution and ends with the credential granting ``role``.
        """
        role = Role.parse(role) if isinstance(role, str) else role
        live = self._live(now)
        # parent pointers over roles
        start: Dict[Role, Credential] = {}
        for c in live:
            if c.subject == subject and c.role not in start:
                start[c.role] = c
        prev: Dict[Role, Credential] = dict(start)
        queue = deque(start)
        while queue:
            cur = queue.popleft()
            if cur == role:
                # walk back
                path: List[Credential] = []
                r = role
                while True:
                    cred = prev[r]
                    path.append(cred)
                    if cred.subject is not None:
                        break
                    assert cred.from_role is not None
                    r = cred.from_role
                path.reverse()
                return path
            for c in live:
                if c.from_role == cur and c.role not in prev:
                    prev[c.role] = c
                    queue.append(c.role)
        return None

    def __len__(self) -> int:
        return len(self._credentials) - len(
            self._revoked & {c.serial for c in self._credentials}
        )
