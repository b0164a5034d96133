"""Declarative fault schedules.

A :class:`FaultPlan` is an ordered list of :class:`FaultAction` items on
the simulated timeline — the chaos script of an experiment.  Plans are
data (inspectable, hashable into reports) and can be parsed from the
compact CLI syntax::

    crash:sandiego-gw@2000          # fail-stop the node at t=2000ms
    restart:sandiego-gw@6000        # bring it back (empty) at t=6000ms
    partition:newyork-gw/newyork-ms@1000    # sever the link
    heal:newyork-gw/newyork-ms@4000         # restore it
    drop:sandiego-gw/sandiego-client1:0.3@1000-5000   # lose 30% of
                                    # messages on the link in [1s, 5s)
    delay:sandiego-gw/sandiego-client1:25@1000-5000   # +25ms per message
    duplicate:sandiego-gw/newyork-ms:0.2@1000-5000    # re-deliver 20% of
                                    # messages crossing the link
    reorder:sandiego-gw/newyork-ms:40@1000-5000       # delay a random
                                    # subset up to 40ms so later messages
                                    # overtake them
    corrupt:sandiego-gw/newyork-ms:0.1@1000-5000      # garble 10% of
                                    # messages (receiver rejects them)
    split:newyork-gw,newyork-ms|sandiego-gw,seattle-gw@1000-6000
                                    # network split: sever every link
                                    # between the groups, heal at T2

Injection itself is performed by :class:`repro.faults.FaultInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = ["FaultKind", "FaultAction", "FaultPlan", "FaultPlanError"]


class FaultPlanError(ValueError):
    """Malformed fault specification."""


class FaultKind:
    """The supported fault vocabulary (plain strings, not an enum, so
    plans serialize trivially into benchmark reports)."""

    CRASH = "crash"
    RESTART = "restart"
    PARTITION = "partition"
    HEAL = "heal"
    DROP = "drop"
    DELAY = "delay"
    #: message faults: re-deliver / out-of-order / garble within a window
    DUPLICATE = "duplicate"
    REORDER = "reorder"
    CORRUPT = "corrupt"
    #: multi-link network split: sever every link between node groups
    SPLIT = "split"

    ALL = (
        CRASH, RESTART, PARTITION, HEAL, DROP, DELAY,
        DUPLICATE, REORDER, CORRUPT, SPLIT,
    )
    #: window faults carry an ``until_ms`` and are active in [at, until)
    WINDOWED = (DROP, DELAY, DUPLICATE, REORDER, CORRUPT, SPLIT)
    #: window faults whose magnitude is a probability in [0, 1]
    PROBABILISTIC = (DROP, DUPLICATE, CORRUPT)
    #: window faults whose magnitude is a duration in ms
    TIMED = (DELAY, REORDER)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault.

    ``node`` is set for crash/restart; ``link`` for link and message
    faults; ``groups`` for a multi-link split.  ``at_ms`` is the
    injection instant; window faults (drop/delay/duplicate/reorder/
    corrupt/split) also carry ``until_ms``.  ``magnitude`` is a
    probability in [0, 1] (drop/duplicate/corrupt) or a duration in ms
    (delay, and for reorder the maximum hold-back).
    """

    kind: str
    at_ms: float
    node: Optional[str] = None
    link: Optional[Tuple[str, str]] = None
    until_ms: Optional[float] = None
    magnitude: float = 0.0
    #: node groups for ``split`` (every cross-group link is severed)
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        # ``not x >= 0`` so NaN is rejected too
        if not self.at_ms >= 0 or (self.until_ms is not None and not self.until_ms >= 0):
            raise FaultPlanError(f"{self.kind} fault has a negative or NaN timestamp")
        if self.kind in (FaultKind.CRASH, FaultKind.RESTART):
            if not self.node:
                raise FaultPlanError(f"{self.kind} fault needs a node")
        elif self.kind == FaultKind.SPLIT:
            if not self.groups or len(self.groups) < 2:
                raise FaultPlanError("split fault needs >= 2 node groups")
            if any(not g for g in self.groups):
                raise FaultPlanError("split fault has an empty node group")
            seen: set = set()
            for group in self.groups:
                for name in group:
                    if name in seen:
                        raise FaultPlanError(
                            f"split fault lists node {name!r} in two groups"
                        )
                    seen.add(name)
        elif self.link is None:
            raise FaultPlanError(f"{self.kind} fault needs a link")
        if self.kind in FaultKind.WINDOWED:
            if self.until_ms is None or self.until_ms <= self.at_ms:
                raise FaultPlanError(
                    f"{self.kind} fault needs a window: T1-T2 with T2 > T1"
                )
        if self.kind in FaultKind.PROBABILISTIC and not 0.0 <= self.magnitude <= 1.0:
            raise FaultPlanError(
                f"{self.kind} probability must be in [0, 1], got {self.magnitude}"
            )
        if self.kind in FaultKind.TIMED and not self.magnitude >= 0:
            raise FaultPlanError(
                f"{self.kind} duration must be >= 0, got {self.magnitude}"
            )

    @property
    def subject(self) -> str:
        if self.node:
            return self.node
        if self.groups is not None:
            return "|".join(",".join(g) for g in self.groups)
        return "<->".join(self.link)  # type: ignore[arg-type]

    def describe(self) -> str:
        window = (
            f"@{self.at_ms:.0f}-{self.until_ms:.0f}"
            if self.until_ms is not None
            else f"@{self.at_ms:.0f}"
        )
        has_mag = self.kind in FaultKind.PROBABILISTIC or self.kind in FaultKind.TIMED
        mag = f":{self.magnitude:g}" if has_mag else ""
        if self.node:
            subject = self.node
        elif self.groups is not None:
            subject = "|".join(",".join(g) for g in self.groups)
        else:
            subject = "/".join(self.link)  # type: ignore[arg-type]
        return f"{self.kind}:{subject}{mag}{window}"


@dataclass
class FaultPlan:
    """An ordered fault schedule plus the RNG seed for stochastic faults."""

    actions: List[FaultAction] = field(default_factory=list)
    seed: int = 0

    def add(self, action: FaultAction) -> "FaultPlan":
        self.actions.append(action)
        return self

    def sorted_actions(self) -> List[FaultAction]:
        return sorted(self.actions, key=lambda a: a.at_ms)

    def describe(self) -> List[str]:
        return [a.describe() for a in self.sorted_actions()]

    def __len__(self) -> int:
        return len(self.actions)

    def validate(self) -> "FaultPlan":
        """Reject plans that would silently misbehave at injection time.

        Raises :class:`FaultPlanError` for (1) actions with negative or
        NaN timestamps, (2) duplicate actions — same (kind, subject, at_ms)
        scheduled twice, and (3) overlapping windows of the same kind on
        the same subject (two drop windows on one link at once compound
        their probabilities in an order-dependent way; the plan should
        say what it means).  Returns ``self`` so callers can chain.
        """
        seen: set = set()
        open_windows: dict = {}
        for action in self.sorted_actions():
            if not action.at_ms >= 0 or (
                action.until_ms is not None and not action.until_ms >= 0
            ):
                raise FaultPlanError(
                    f"{action.describe()}: negative or NaN timestamp"
                )
            key = (action.kind, action.subject, action.at_ms)
            if key in seen:
                raise FaultPlanError(
                    f"{action.describe()}: duplicate action "
                    f"(same kind/subject scheduled twice at t={action.at_ms:g})"
                )
            seen.add(key)
            if action.until_ms is None:
                continue
            wkey = (action.kind, action.subject)
            prev = open_windows.get(wkey)
            if prev is not None and action.at_ms < prev.until_ms:
                raise FaultPlanError(
                    f"{action.describe()}: overlaps {prev.describe()} "
                    f"(same {action.kind} window on one subject)"
                )
            open_windows[wkey] = action
        return self

    # -- parsing -----------------------------------------------------------
    @classmethod
    def parse(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI-style specs (see module docstring)."""
        plan = cls(seed=seed)
        for spec in specs:
            plan.add(cls.parse_action(spec))
        return plan

    @staticmethod
    def parse_action(spec: str) -> FaultAction:
        text = spec.strip()
        head, sep, when = text.rpartition("@")
        if not sep:
            raise FaultPlanError(f"{spec!r}: missing '@time'")
        try:
            if "-" in when:
                t1_s, t2_s = when.split("-", 1)
                at_ms, until_ms = float(t1_s), float(t2_s)
            else:
                at_ms, until_ms = float(when), None
        except ValueError:
            raise FaultPlanError(f"{spec!r}: bad time {when!r}") from None

        parts = head.split(":")
        kind = parts[0]
        if kind in (FaultKind.CRASH, FaultKind.RESTART):
            if len(parts) != 2:
                raise FaultPlanError(f"{spec!r}: expected {kind}:NODE@T")
            return FaultAction(kind=kind, at_ms=at_ms, node=parts[1])
        if kind in (FaultKind.PARTITION, FaultKind.HEAL):
            if len(parts) != 2 or "/" not in parts[1]:
                raise FaultPlanError(f"{spec!r}: expected {kind}:A/B@T")
            a, b = parts[1].split("/", 1)
            return FaultAction(kind=kind, at_ms=at_ms, link=(a, b))
        if kind in (
            FaultKind.DROP, FaultKind.DELAY,
            FaultKind.DUPLICATE, FaultKind.REORDER, FaultKind.CORRUPT,
        ):
            if len(parts) != 3 or "/" not in parts[1]:
                raise FaultPlanError(
                    f"{spec!r}: expected {kind}:A/B:MAGNITUDE@T1-T2"
                )
            a, b = parts[1].split("/", 1)
            try:
                magnitude = float(parts[2])
            except ValueError:
                raise FaultPlanError(f"{spec!r}: bad magnitude {parts[2]!r}") from None
            return FaultAction(
                kind=kind, at_ms=at_ms, link=(a, b),
                until_ms=until_ms, magnitude=magnitude,
            )
        if kind == FaultKind.SPLIT:
            if len(parts) != 2 or "|" not in parts[1]:
                raise FaultPlanError(
                    f"{spec!r}: expected split:A,B|C,D@T1-T2"
                )
            groups = tuple(
                tuple(n for n in group.split(",") if n)
                for group in parts[1].split("|")
            )
            return FaultAction(
                kind=kind, at_ms=at_ms, groups=groups, until_ms=until_ms
            )
        raise FaultPlanError(
            f"{spec!r}: unknown fault kind {kind!r} (one of {FaultKind.ALL})"
        )
