"""Timestamped channels between logical processes.

Conservative (Chandy–Misra–Bryant style) synchronization exchanges two
kinds of items per directed partition pair:

- :class:`RemoteMessage` — an application payload with the *delivery*
  timestamp already stamped by the sender (send clock + channel
  latency), plus the sender's ``(origin, seq)`` identity that slots it
  into the receiver's total heap order.
- :class:`Advert` — an explicit null message: "my clock will not go
  below ``clock``", from which the receiver derives the channel
  guarantee ``clock + lookahead``.

Both are plain named tuples so they cross process boundaries with
minimal pickling cost, and the in-process (workers=1) router can hand
them over without any translation.
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = ["RemoteMessage", "Advert"]


class RemoteMessage(NamedTuple):
    """A cross-partition application message.

    ``when``    delivery time at the receiving partition (ms).
    ``origin``  sender partition rank — heap tiebreaker component.
    ``seq``     sender's per-origin message sequence number.
    ``dest``    final destination node name (may be outside the
                receiving partition, in which case the program relays).
    ``via``     the entry node in the receiving partition (the cut
                link's far endpoint).
    ``kind``    program-level message type, dispatched to the handler
                registered via ``PartitionContext.on_message``.
    ``payload`` opaque program data (must be picklable).
    ``clock``   the sender's send-time clock — doubles as an implicit
                advert, tightening the channel guarantee for free.
    ``size``    payload size in bytes (for onward local/relay hops).
    """

    when: float
    origin: int
    seq: int
    dest: str
    via: str
    kind: str
    payload: Any
    clock: float
    size: int


class Advert(NamedTuple):
    """A null message: the sender promises its clock stays >= ``clock``."""

    origin: int
    clock: float
