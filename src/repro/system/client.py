"""The mobile client: the subscriber-side half of the protocol.

The client owns exactly three things (Section 3): its subscription, its
current safe region, and its GPS readings.  Its contract is minimal —
and it is the whole point of the safe-region machinery:

* while the current position stays inside the safe region, the client is
  **silent** (it may even disconnect);
* the moment the position leaves the region (or no region is held, or an
  empty region was received because the subscriber's own cell is unsafe),
  the client reports its location and velocity;
* when the server pings (an event arrived in the impact region), the
  client answers with its location;
* safe-region pushes replace the held region.

The client never sees events it was not notified about and never learns
the impact region — that stays on the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..core import SafeRegion
from ..expressions import Event, Subscription
from ..geometry import Point


@dataclass
class MobileClient:
    """Client-side state machine for one subscriber."""

    subscription: Subscription
    location: Point
    velocity: Point = field(default_factory=lambda: Point(0.0, 0.0))
    safe_region: Optional[SafeRegion] = None
    received_events: List[Event] = field(default_factory=list)
    reports_sent: int = 0
    #: ids of every event ever applied — the dedupe filter that makes
    #: redelivery after a resync idempotent, and the payload of a
    #: :class:`~repro.system.protocol.ResyncMessage`
    seen_event_ids: Set[int] = field(default_factory=set)
    #: notifications discarded because the event was already held
    #: (a lossy network redelivering, or a resync overlapping a push)
    duplicates_suppressed: int = 0
    #: highest per-subscriber delivery sequence number observed (0 until
    #: a sequenced notification arrives); the server stamps each fresh
    #: delivery with the next value, so a jump past ``last_seq + 1``
    #: means the dead connection swallowed a notification
    last_seq: int = 0
    #: sequence gaps observed (each one is a delivery the client knows
    #: it missed and will recover through resync)
    seq_gaps: int = 0

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------
    def move_to(self, location: Point, velocity: Point) -> bool:
        """Advance one timestamp; returns True if a report is due.

        A report is due when no usable safe region is held or the new
        position left it — the client-side check of Section 3.
        """
        self.location = location
        self.velocity = velocity
        return self.must_report()

    def must_report(self) -> bool:
        """Client-side check: is the held safe region still usable here?"""
        region = self.safe_region
        if region is None or region.is_empty():
            return True
        return not region.contains_point(self.location)

    def report(self) -> tuple:
        """The (location, velocity) payload of a location report."""
        self.reports_sent += 1
        return self.location, self.velocity

    # ------------------------------------------------------------------
    # Server pushes
    # ------------------------------------------------------------------
    def receive_region(self, region: SafeRegion) -> None:
        """Install a pushed safe region."""
        self.safe_region = region

    def apply_region_delta(self, removed_cells) -> bool:
        """Shrink the held region by a server repair's removed cells (their
        Morton codes, as ``cells_from_delta`` decodes them).

        The delta counterpart of :meth:`receive_region`: the server
        carved cells out of the region this client holds and shipped
        only those cells.  Returns False when no region is held (a
        reconnecting client that dropped its region) — the delta is
        then discarded, which is safe because a region-less client
        reports every timestamp anyway and the resync path ships a
        fresh full region.
        """
        if self.safe_region is None:
            return False
        self.safe_region, _ = self.safe_region.subtract(removed_cells)
        return True

    def receive_notification(self, event: Event, seq: int = 0) -> bool:
        """Record a delivered event; False if it was a duplicate.

        At-most-once to the application: an event id seen before is
        suppressed, so a hostile network (or an overlapping resync) may
        redeliver freely without the client observing the event twice.
        A sequenced delivery (``seq > 0``) also advances ``last_seq``;
        jumps past the expected next value are counted as ``seq_gaps``.
        """
        if seq > 0:
            if self.last_seq and seq > self.last_seq + 1:
                self.seq_gaps += 1
            self.last_seq = max(self.last_seq, seq)
        if event.event_id in self.seen_event_ids:
            self.duplicates_suppressed += 1
            return False
        self.seen_event_ids.add(event.event_id)
        self.received_events.append(event)
        return True

    def answer_ping(self) -> tuple:
        """The client's reply to a server location ping."""
        return self.location, self.velocity

    # ------------------------------------------------------------------
    # Reconnect support
    # ------------------------------------------------------------------
    def received_ids(self) -> Tuple[int, ...]:
        """The resync payload: every event id this client holds."""
        return tuple(sorted(self.seen_event_ids))

    def reset_connection(self) -> None:
        """Forget connection-scoped state after a lost connection.

        The held safe region may be stale (pushes can be lost while the
        connection was dying), so it is dropped — ``must_report`` then
        answers True and the reconnect path reports/resyncs immediately.
        Received events survive: they are the client's durable state.
        """
        self.safe_region = None
