"""The Elaps server (Section 5, Figure 6).

The server wires together every piece of the paper's framework:

* the **event index** (a BEQ-Tree) holding the current event corpus and
  answering subscription matches and on-demand be-matching;
* the **subscription index** (OpIndex over subscriptions) answering, for
  each arriving event, which subscribers' boolean expressions it
  satisfies;
* the **impact-region index** mapping grid cells to the subscribers whose
  impact region covers them;
* the **safe-region constructor** (one of VM/GM/iGM/idGM) invoked by the
  subscription processor and the location-update handler.

Message flows implemented exactly as Section 5 describes:

*Subscription arrival* — match the event corpus (BEQ-Tree), deliver the
events already inside the notification region, construct the safe/impact
regions, ship the safe region.

*Event arrival* — insert into the event index; find be-matching
subscribers; those whose impact region covers the event's cell get a
location ping (one event-arrival round): if the event is within the
notification radius, it is delivered; otherwise new regions are built and
the safe region is shipped.

*Event expiration* — drop the event from the event index; by Lemma 4 no
client communication is needed.

*Location update* — the client reports after leaving its safe region (one
location-update round); matching events that the move brought inside the
notification circle are delivered, then new regions are built.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..core import (
    ConstructionRequest,
    ImpactRegion,
    LazyBEQField,
    RegionPair,
    RepairBudget,
    SafeRegion,
    SafeRegionStrategy,
    StaticMatchingField,
    SystemStats,
)
from ..core.field import dilate_points
from ..expressions import Event, Subscription
from ..geometry import Cell, Grid, Point
from ..index import BEQTree, ImpactRegionIndex, SubscriptionIndex
from .config import ServerConfig, Transport
from .journal import (
    PUBLISHES,
    Journal,
    JournalError,
    JournalRecord,
    ServerSnapshot,
    SubscriberSnapshot,
    decode_snapshot,
    encode_snapshot,
)
from .metrics import CommunicationStats
from .observability import MetricsRegistry
from .protocol import (
    LocationPing,
    LocationReport,
    ResyncMessage,
    message_bytes,
    subscribe_message_for,
)

#: lower bound on the speed used for region construction: a parked
#: subscriber still gets a region shaped for (slow) movement
MIN_SPEED = 1.0
#: sliding window (timestamps) of the event-rate estimator (Eq. 5-6)
RATE_WINDOW = 50
#: the subscription index's work counters, scraped into the metrics
#: around every matching pass
_MATCH_COUNTERS = ("match_batch_probes", "match_probe_memo_hits", "partitions_pruned")


@dataclass
class RepairState:
    """Drift bookkeeping between two full constructions (repair mode).

    Created by every :meth:`ElapsServer._construct` when repair is on and
    consulted by :meth:`ElapsServer._repair` to decide — via
    :class:`~repro.core.RepairBudget` — whether carving is still cheaper
    than rebuilding.  ``ne_estimate`` tracks the matching-event count
    inside the *still-installed* impact region: every repaired type-II
    event landed there, so each one adds exactly one to the build-time
    count without re-querying the matching field.
    """

    pair: RegionPair
    cells_at_build: int
    removed_since_build: int = 0
    ne_estimate: int = 0


@dataclass
class SubscriberRecord:
    """Server-side state for one subscriber, derived artefacts included:
    they are retired with the record (unsubscribe drops it, a resubscribe
    starts a fresh one) or by :meth:`drop_derived`.
    """

    subscription: Subscription
    location: Point
    velocity: Point
    safe: Optional[SafeRegion] = None
    delivered: Set[int] = dataclass_field(default_factory=set)
    repair: Optional[RepairState] = None
    #: per-subscriber delivery sequence number: every notification this
    #: server hands the subscriber carries the next value, so a client
    #: can detect gaps after a reconnect (snapshots persist it; tail
    #: replay re-stamps deterministically)
    next_seq: int = 0
    #: the cell whose dilation is installed as this subscriber's impact
    #: region by a degenerate (empty-region) construction; None while a
    #: constructed impact region — or none at all — is installed
    degenerate_cell: Optional[Cell] = None
    #: repair mode under on-demand matching: the one matching field that
    #: survives across constructions.  Corpus churn reaches it through
    #: note_event / note_exclusion(s), which keep it exact.
    lazy_field: Optional[LazyBEQField] = None

    def drop_field(self) -> None:
        """Drop the retained field, taking it out of the server's event
        id -> holders map."""
        if self.lazy_field is not None:
            self.lazy_field.release()
            self.lazy_field = None

    def drop_derived(self) -> None:
        """Forget everything built against ``delivered`` (the field
        excludes by reference to it, the drift state carves the region
        built from it); ``degenerate_cell`` does not depend on it."""
        self.drop_field()
        self.repair = None


@dataclass(frozen=True)
class Notification:
    """One matching event delivered to one subscriber."""

    sub_id: int
    event: Event
    timestamp: int
    #: per-subscriber delivery sequence number (0 = unsequenced, e.g.
    #: results built by hand in tests)
    seq: int = 0


class ElapsServer:
    """The pub/sub server of Figure 6."""

    def __init__(
        self,
        grid: Grid,
        strategy: SafeRegionStrategy,
        config: Optional[ServerConfig] = None,
        *,
        event_index: Optional[BEQTree] = None,
        subscription_index: Optional[SubscriptionIndex] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        config = config or ServerConfig()
        #: the immutable knob set this server was built from; a sharded
        #: coordinator hands the same value to every worker
        self.config = config
        self.grid = grid
        self.strategy = strategy
        # "is None" rather than "or": an empty index is falsy (len 0),
        # and a caller-provided index must never be silently replaced
        self.event_index = (
            event_index if event_index is not None
            else BEQTree(grid.space, emax=256)
        )
        self.subscription_index = (
            subscription_index if subscription_index is not None
            else SubscriptionIndex()
        )
        self.impact_index = ImpactRegionIndex()
        #: the rate estimator's window and the repair budget: constants
        #: no configuration sets, assignable for tests (DESIGN.md §12)
        self.rate_window = RATE_WINDOW
        self.repair_budget = RepairBudget()
        #: the one client-facing seam: region/delta shipping and the
        #: location ping all go through here (the base class, a null
        #: transport, by default)
        self.transport = transport if transport is not None else Transport()

        self.subscribers: Dict[int, SubscriberRecord] = {}
        self.metrics = CommunicationStats()
        #: the unified observability surface: the counters above plus the
        #: per-stage latency histograms fed by the span tracer.  The
        #: tracer is shared with the TCP layer (frame read/decode/
        #: dispatch/drain spans) and served as frame type 13.
        self.registry = MetricsRegistry(self.metrics)
        self.tracer = self.registry.tracer
        #: arrival timestamps inside the rate window, oldest first; pruned
        #: from the left on every append and read, so it never outgrows
        #: one window's arrivals (clocks are monotone)
        self._arrival_times: Deque[int] = deque()
        self._expiry_heap: List[Tuple[int, int]] = []  # (expires_at, event_id)
        self._events_by_id: Dict[int, Event] = {}
        #: event id -> the subscribers whose retained matching field knows
        #: the event: an exclusion goes to exactly those fields (repair
        #: mode only)
        self._field_holders: Dict[int, Set[int]] = {}
        self._started_at: Optional[int] = None
        #: durable operation journal (DESIGN.md §13); None keeps the
        #: server purely in-memory
        self.journal: Optional[Journal] = (
            Journal(config.journal) if config.journal is not None else None
        )
        #: highest journal sequence number reflected in this server's
        #: state.  Starts at 0 even over a non-empty journal — a fresh
        #: process holds none of the logged state until :meth:`recover`
        #: replays it.  Snapshot restore and tail replay advance it;
        #: records at or below it are skipped on replay, which is what
        #: makes replaying the same journal twice a no-op.
        self.applied_seq = 0

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self, events) -> None:
        """Load the initial event database without arrival processing."""
        events = list(events)
        # validated before it is journaled: a refused load leaves no record
        # for recover() to fail on
        fresh = self._fresh_events(events)
        self._journal_append("bootstrap", (events,))
        if self._store_events(events, fresh):
            # Stored without arrival processing, so no retained matching
            # field heard of them, and a scanned leaf is never revisited:
            # a mid-life load (a band move's hand-over) retires them all.
            for record in self.subscribers.values():
                record.drop_field()
        self._maybe_snapshot()

    def _fresh_events(self, events: List[Event]) -> List[Event]:
        """The events this corpus does not hold yet, in order, validated as
        one batch (:meth:`BEQTree.validate_batch`: bounds, and ids repeated
        within them), so a refused batch raises before anything moves."""
        fresh = [e for e in events if e.event_id not in self._events_by_id]
        self.event_index.validate_batch(fresh)
        return fresh

    def _store_events(
        self, events: List[Event], fresh: Optional[List[Event]] = None
    ) -> List[Event]:
        """Add the events this corpus does not hold yet (``fresh``, when
        the caller already took them through :meth:`_fresh_events`) to the
        event index and the expiry heap, in order; returns them.

        Idempotent: a producer retry, a re-run load or a partially
        surviving fleet re-running an operation another band lost re-sends
        events the corpus already holds, and those are dropped and counted
        in ``duplicate_publishes`` (duplicates *within* the fresh
        remainder are a caller bug, rejected atomically).
        """
        if fresh is None:
            fresh = self._fresh_events(events)
        self.metrics.duplicate_publishes += len(events) - len(fresh)
        self.event_index.insert_batch(fresh, validated=True)
        for event in fresh:
            self._events_by_id[event.event_id] = event
            if event.expires_at is not None:
                heapq.heappush(self._expiry_heap, (event.expires_at, event.event_id))
        return fresh

    # ------------------------------------------------------------------
    # Statistics (the cost-model inputs)
    # ------------------------------------------------------------------
    def _note_arrivals(self, now: int, count: int = 1) -> None:
        self._arrival_times.extend(itertools.repeat(now, count))
        self._prune_arrivals(now)

    def _prune_arrivals(self, now: int) -> None:
        window_start = now - self.rate_window
        arrivals = self._arrival_times
        while arrivals and arrivals[0] <= window_start:
            arrivals.popleft()

    def _estimated_rate(self, now: int) -> float:
        self._prune_arrivals(now)
        initial_rate = self.config.initial_rate
        if initial_rate is not None and (
            self._started_at is None or now - self._started_at < self.rate_window
        ):
            return initial_rate
        return len(self._arrival_times) / self.rate_window

    def system_stats(self, now: int) -> SystemStats:
        """The cost-model inputs at time ``now`` (Equations 5-6)."""
        stats_override = self.config.stats_override
        if stats_override is not None:
            return stats_override(now)
        return SystemStats(
            event_rate=self._estimated_rate(now),
            total_events=len(self.event_index),
        )

    # ------------------------------------------------------------------
    # Subscription arrival / expiration
    # ------------------------------------------------------------------
    def subscribe(
        self,
        subscription: Subscription,
        location: Point,
        velocity: Point,
        now: int = 0,
    ) -> Tuple[List[Notification], SafeRegion]:
        """Register a subscriber; deliver current matches, ship a safe region.

        Subscribing an already-known ``sub_id`` is a *resubscribe* — the
        reconnect path of a client that lost its connection.  The old
        subscription leaves the index, but the ``delivered`` set survives
        so events the first connection already shipped are not shipped
        again (a following :meth:`resync` reconciles against what the
        client actually received).
        """
        self._journal_append("subscribe", (subscription, location, velocity, now))
        if self._started_at is None:
            self._started_at = now
        existing = self.subscribers.get(subscription.sub_id)
        if existing is not None:
            # The expression and the radius may change across a
            # resubscribe: a fresh record, so nothing derived for the old
            # ones is carried over.
            self.subscription_index.delete(existing.subscription)
            existing.drop_derived()
            record = SubscriberRecord(
                subscription, location, velocity, delivered=existing.delivered
            )
            self.metrics.resubscribes += 1
        else:
            record = SubscriberRecord(subscription, location, velocity)
        self.subscribers[subscription.sub_id] = record
        self.subscription_index.insert(subscription)
        notifications = self._deliver_corpus_matches(record, location, now)
        self.metrics.wire_bytes_up += message_bytes(
            subscribe_message_for(subscription, location, velocity)
        )
        self.metrics.count_notifications(notifications)
        self._construct(record, now)
        self._maybe_snapshot()
        return notifications, record.safe

    def _deliver_corpus_matches(
        self,
        record: SubscriberRecord,
        location: Point,
        now: int,
        field: Optional[LazyBEQField] = None,
    ) -> List[Notification]:
        """Match the live corpus at ``location``; deliver what's missing.

        The one corpus-scan-and-deliver routine behind a fresh subscribe,
        a location report, and a resync: match the event index, skip
        events already in the ``delivered`` set, mark the rest delivered
        (excluding them from a cached matching ``field`` when one is
        live), and count the notifications.

        A location report hands over the subscriber's retained ``field``,
        which already knows every live undelivered be-matching event of
        the rectangle it covers (its class invariant), so it is asked
        first.  The event index still answers when there is no field,
        when the circle is not covered — and when more than one event
        survives: the tree's order (leaf stack, then iDistance) is part
        of the notification log and of every ``seq``, and is the tree's
        to state.
        """
        with self.tracer.span("match"):
            matched = None
            if field is not None:
                matched = self._corpus_matches_from_field(record, location, field)
            if matched is None:
                matched = self.event_index.match(
                    record.subscription, location, exclude=record.delivered
                )
        sub_id = record.subscription.sub_id
        notifications: List[Notification] = []
        for event in matched:
            if event.event_id in record.delivered:
                continue
            record.delivered.add(event.event_id)
            if field is not None and field.note_exclusion(event.event_id):
                self.metrics.field_exclusions += 1
            record.next_seq += 1
            notifications.append(Notification(sub_id, event, now, record.next_seq))
        self.metrics.notifications += len(notifications)
        return notifications

    def _corpus_matches_from_field(
        self, record: SubscriberRecord, location: Point, field: LazyBEQField
    ) -> Optional[List[Event]]:
        """The corpus match at ``location`` as the retained ``field`` knows
        it: the one undelivered event inside the circle, or none — or None
        when that is the event index's to say (circle not covered, or
        several events whose order the tree defines).  The field is exact:
        every id it returns is live and undelivered."""
        known = field.matches_in_circle(location)
        if known is None or len(known) > 1:
            return None
        self.metrics.corpus_matches_from_field += 1
        return [self._events_by_id[event_id] for event_id in known]

    def unsubscribe(self, sub_id: int) -> None:
        """Drop a subscriber from every index (subscription expiration)."""
        if sub_id not in self.subscribers:
            # Validate before journaling: a rejected operation must not
            # leave a record that would fail again on replay.
            raise KeyError(f"unknown subscriber {sub_id}")
        self._journal_append("unsubscribe", (sub_id,))
        record = self.subscribers.pop(sub_id)
        record.drop_derived()
        self.subscription_index.delete(record.subscription)
        self.impact_index.remove(sub_id)
        self._maybe_snapshot()

    # ------------------------------------------------------------------
    # Event arrival / expiration
    # ------------------------------------------------------------------
    def publish(self, event: Event, now: int) -> List[Notification]:
        """Process one arriving event: a batch of one."""
        return self.publish_batch([event], now)

    def publish_batch(self, events: List[Event], now: int) -> List[Notification]:
        """Process a burst of arriving events — the one event-arrival
        pipeline; :meth:`publish` is this with a single event.

        Delivers exactly the notifications that processing the events one
        at a time (in order) would deliver, but amortises the work:

        * the events enter the BEQ-Tree in one :meth:`BEQTree.insert_batch`
          call, validated for the whole burst before any is stored;
        * impact-region coverage is resolved once per distinct grid cell
          through :meth:`ImpactRegionIndex.match_batch`;
        * each subscriber is pinged at most once per batch (its location
          cannot change mid-burst, so one refresh serves every event);
        * safe-region reconstruction is deferred to the end of the batch —
          a burst touching one subscriber costs at most one construction
          instead of one per out-of-radius event.

        Deferral is sound: the impact region installed before the batch
        keeps covering the notification circle while the subscriber sits
        inside its safe region (Definition 2), so every suppressed event
        is guaranteed out of radius and the notification log is identical
        to event-at-a-time processing (pinned by the golden trace).  The
        index cache counters accumulated during the batch are scraped
        into :class:`CommunicationStats`.
        """
        events = list(events)
        if events:
            self._journal_append("publish_batch", (events, now))
        with self.tracer.span("publish"):
            notifications = self._publish_batch(events, now)
        self._maybe_snapshot()
        return notifications

    def _publish_batch(self, events: List[Event], now: int) -> List[Notification]:
        # A re-published event was already offered to every eligible
        # subscriber by its original arrival (later subscribers match it
        # from the corpus), so only the fresh ones are processed.
        events = self._store_events(events)
        if not events:
            return []
        hits_before, _ = self.event_index.counters.snapshot()
        covering_hits_before = self.impact_index.cache_hits
        self._note_arrivals(now, len(events))
        event_codes = [self.grid.code_of(event.location) for event in events]
        use_impact_region = self.config.use_impact_region
        covering: Dict = {}
        if use_impact_region:
            covering = self.impact_index.match_batch(event_codes)
        notifications: List[Notification] = []
        pinged: Set[int] = set()
        #: insertion-ordered; one deferred construction per subscriber
        needs_construct: Dict[int, SubscriberRecord] = {}
        #: out-of-radius event locations per subscriber, for one repair
        #: (or one fallback construction) at the end of the batch
        pending_repair: Dict[int, List[Point]] = {}
        # One span covers the whole batch's matching pass: a per-event
        # span here would cost more than the (sub-10us) matches it times.
        # Only the OpIndex-style default index keeps the work counters.
        index = self.subscription_index
        counted = [getattr(index, name, 0) for name in _MATCH_COUNTERS]
        with self.tracer.span("match"):
            matched_per_event = index.match_batch(events)
        for name, before in zip(_MATCH_COUNTERS, counted):
            setattr(
                self.metrics, name,
                getattr(self.metrics, name) + getattr(index, name, 0) - before,
            )
        for event, event_code, matched in zip(events, event_codes, matched_per_event):
            for subscription in matched:
                record = self.subscribers.get(subscription.sub_id)
                if record is None or event.event_id in record.delivered:
                    continue
                field = record.lazy_field
                if use_impact_region and (
                    subscription.sub_id not in covering[event_code]
                ):
                    # Outside the impact region: the safe region stays
                    # valid (Definition 2) and no communication happens.
                    # A cached matching field is still offered the event
                    # — its scanned leaves are never revisited.
                    if field is not None:
                        field.note_event(event.event_id, event.location)
                    continue
                if subscription.sub_id not in pinged:
                    # One event-arrival round covers the whole burst.
                    pinged.add(subscription.sub_id)
                    self.metrics.event_arrival_rounds += 1
                    self._refresh_location(record)
                    self.metrics.wire_bytes_down += message_bytes(
                        LocationPing(subscription.sub_id)
                    )
                    self.metrics.wire_bytes_up += message_bytes(
                        LocationReport(
                            subscription.sub_id, record.location, record.velocity
                        )
                    )
                distance = record.location.distance_to(event.location)
                if distance <= subscription.radius:
                    record.delivered.add(event.event_id)
                    record.next_seq += 1
                    notification = Notification(
                        subscription.sub_id, event, now, record.next_seq
                    )
                    notifications.append(notification)
                    self.metrics.notifications += 1
                else:
                    if field is not None:
                        field.note_event(event.event_id, event.location)
                    needs_construct[subscription.sub_id] = record
                    pending_repair.setdefault(subscription.sub_id, []).append(
                        event.location
                    )
        self.metrics.count_notifications(notifications)
        repair = self.config.repair
        for sub_id, record in needs_construct.items():
            if repair and self._repair(record, pending_repair[sub_id]):
                continue
            if repair:
                self.metrics.repair_fallbacks += 1
            self._construct(record, now)
        self.metrics.batches += 1
        self.metrics.batch_events += len(events)
        hits_after, _ = self.event_index.counters.snapshot()
        self.metrics.cache_hits += (hits_after - hits_before) + (
            self.impact_index.cache_hits - covering_hits_before
        )
        return notifications

    def expire_due_events(self, now: int) -> int:
        """Remove events whose validity ended; Lemma 4: no client traffic."""
        if self._expiry_heap and self._expiry_heap[0][0] <= now:
            # Journal only sweeps that will remove something: expiry is
            # deterministic given the corpus, so one record per effective
            # sweep reproduces it, and the no-op ticks between arrivals
            # stay off the log.
            self._journal_append("expire_due_events", (now,))
        retired: List[Event] = []
        while self._expiry_heap and self._expiry_heap[0][0] <= now:
            _, event_id = heapq.heappop(self._expiry_heap)
            event = self._events_by_id.pop(event_id, None)
            if event is not None:  # else: already extracted by a band move
                retired.append(event)
        self._retire_events(retired)
        if retired:
            self._maybe_snapshot()
        return len(retired)

    def _retire_events(self, events: List[Event]) -> None:
        """Drop events (already out of ``_events_by_id``) from the corpus
        index and un-dilate them from the retained fields that know them —
        one call per such field, none to any other.
        """
        holders = self._field_holders
        by_holder: Dict[int, List[int]] = {}
        for event in events:
            self.event_index.delete(event)
            for sub_id in holders.pop(event.event_id, ()):
                by_holder.setdefault(sub_id, []).append(event.event_id)
        for sub_id, event_ids in by_holder.items():
            field = self.subscribers[sub_id].lazy_field
            self.metrics.field_exclusions += field.note_exclusions(event_ids)

    # ------------------------------------------------------------------
    # Band migration (DESIGN.md §15)
    # ------------------------------------------------------------------
    def extract_events_in_columns(self, ranges) -> List[Event]:
        """Remove and return the live events in the given grid-column
        ranges (each ``(lo, hi)`` half-open), in corpus insertion order.

        The fleet coordinator calls this on the *donor* shard of a band
        move; the returned events are re-:meth:`bootstrap`-ped into the
        new owner.  Removal reuses the expiry machinery — the event
        leaves the BEQ-Tree and the retained matching fields that know it
        un-dilate it — so held safe regions stay valid (removing an event
        can only *grow* the true safe region, never shrink it: Definition
        1 is a conjunction over events).  Stale expiry-heap
        entries for the removed events are skipped by the sweep, exactly
        as after a normal expiry.
        """
        ranges = [(int(lo), int(hi)) for lo, hi in ranges]
        for lo, hi in ranges:
            if lo < 0 or hi < lo:
                raise ValueError(f"bad column range ({lo}, {hi})")
        self._journal_append("extract_events_in_columns", (ranges,))
        extracted: List[Event] = []
        for event in list(self._events_by_id.values()):
            column = self.grid.cell_of(event.location)[0]
            if any(lo <= column < hi for lo, hi in ranges):
                extracted.append(event)
        for event in extracted:
            del self._events_by_id[event.event_id]
        self._retire_events(extracted)
        if extracted:
            self._maybe_snapshot()
        return extracted

    def resequence_subscriptions(self, order) -> None:
        """Rebuild the subscription index with subscriptions inserted in
        the given ``sub_id`` order (unknown ids are ignored; local
        subscribers missing from ``order`` keep their relative order at
        the end).

        Event-arrival notification order follows the index's internal
        insertion order, so a shard that gains a subscriber mid-life
        (band rebalance re-homing) would report that subscriber *after*
        everyone already present — diverging from a single server that
        saw all subscribes in client order.  Re-sequencing to the
        coordinator's subscribe order restores the single-server order.
        Pure re-indexing: no safe region, delivered set, or journal
        state changes (recovery replays subscribes in journal order,
        which only affects notification order, never delivery sets).
        """
        known = [sub_id for sub_id in order if sub_id in self.subscribers]
        placed = set(known)
        tail = [sub_id for sub_id in self.subscribers if sub_id not in placed]
        sequence = known + tail
        for sub_id in sequence:
            self.subscription_index.delete(self.subscribers[sub_id].subscription)
        for sub_id in sequence:
            self.subscription_index.insert(self.subscribers[sub_id].subscription)

    # ------------------------------------------------------------------
    # Location update
    # ------------------------------------------------------------------
    def report_location(
        self, sub_id: int, location: Point, velocity: Point, now: int
    ) -> Tuple[List[Notification], SafeRegion]:
        """Handle a client report after it left its safe region."""
        if sub_id in self.subscribers:
            self._journal_append("report_location", (sub_id, location, velocity, now))
        with self.tracer.span("location_update"):
            result = self._report_location(sub_id, location, velocity, now)
        self._maybe_snapshot()
        return result

    def _report_location(
        self, sub_id: int, location: Point, velocity: Point, now: int
    ) -> Tuple[List[Notification], SafeRegion]:
        record = self.subscribers[sub_id]
        self.metrics.location_update_rounds += 1
        record.location = location
        record.velocity = velocity
        # The move may have brought matching events inside the circle.
        notifications = self._deliver_corpus_matches(
            record, location, now, field=record.lazy_field
        )
        self.metrics.wire_bytes_up += message_bytes(
            LocationReport(sub_id, location, velocity)
        )
        self.metrics.count_notifications(notifications)
        self._construct(record, now)
        return notifications, record.safe

    def resync(
        self,
        sub_id: int,
        location: Point,
        velocity: Point,
        received,
        now: int,
    ) -> Tuple[List[Notification], SafeRegion]:
        """Reconcile a reconnecting client against its received-event ids.

        The client's report is the ground truth of what survived the
        network: the server adopts it as the new ``delivered`` set, so
        notifications a dead connection swallowed become deliverable
        again, and redelivers every matching event inside the
        notification region that the client is missing.  Events the
        client *did* receive stay in the set, so nothing is ever shipped
        twice.  Finishes by rebuilding and re-shipping the safe region
        (the client dropped its held region on disconnect).
        """
        record = self.subscribers[sub_id]
        received = tuple(received)
        self._journal_append("resync", (sub_id, location, velocity, received, now))
        self.metrics.resyncs += 1
        record.location = location
        record.velocity = velocity
        # ``delivered`` is rebound to a fresh set; the retained matching
        # field holds a reference to the old one, and neither it nor the
        # state built with it may survive — in particular the repair drift
        # state, or a post-reconnect repair would carve against a field
        # built for the pre-disconnect delivered set (a recovered server
        # resyncing clients after a restart hits exactly this path).
        record.drop_derived()
        record.delivered = set(received)
        notifications = self._deliver_corpus_matches(record, location, now)
        self.metrics.redeliveries += len(notifications)
        self.metrics.wire_bytes_up += message_bytes(
            ResyncMessage(sub_id, location, velocity, received)
        )
        self.metrics.count_notifications(notifications)
        self._construct(record, now)
        self._maybe_snapshot()
        return notifications, record.safe

    def rebuild_all(self, now: int) -> None:
        """Rebuild every subscriber's regions with fresh statistics.

        Used by the Figure 10 oracle variants: the rebuild itself adds no
        communication rounds (only construction work), matching the
        paper's rule that oracle refreshes are not counted as I/O.
        """
        for record in self.subscribers.values():
            self._refresh_location(record)
            self._construct(record, now)

    # ------------------------------------------------------------------
    # Durability: journaling, snapshots, recovery (DESIGN.md §13)
    # ------------------------------------------------------------------
    def _journal_append(self, method: str, args: Tuple) -> None:
        """Write-ahead: persist the operation — as the ``(method, args)``
        call that is running — before applying it, so a crash mid-apply
        replays the whole operation on recovery."""
        journal = self.journal
        if journal is None or journal.suspended:
            return
        written = journal.append(JournalRecord(0, method, args))
        self.applied_seq = journal.seq
        self.metrics.journal_records += 1
        self.metrics.journal_bytes += written

    def _maybe_snapshot(self) -> None:
        """Honour ``JournalSpec.snapshot_every`` at operation end (the
        state then reflects every journaled record, so the snapshot's
        sequence number is exact)."""
        journal = self.journal
        if journal is not None and not journal.suspended and journal.snapshot_due():
            self.snapshot()

    def snapshot(self) -> None:
        """Persist the full server image and rotate the journal."""
        if self.journal is None:
            raise JournalError("server has no journal configured")
        image = ServerSnapshot(
            last_seq=self.journal.seq,
            started_at=self._started_at,
            arrival_times=list(self._arrival_times),
            events=list(self._events_by_id.values()),
            subscribers=self.subscriber_snapshots(),
            counters=self.metrics.as_dict(),
        )
        written = self.journal.write_snapshot(encode_snapshot(image), image.last_seq)
        self.metrics.snapshots_taken += 1
        self.metrics.snapshot_bytes += written

    def subscriber_snapshots(self) -> List[SubscriberSnapshot]:
        """Every subscriber's durable image, in subscribe order: what
        :meth:`snapshot` persists and a recovered fleet's coordinator reads."""
        return [
            SubscriberSnapshot(
                subscription=record.subscription,
                location=record.location,
                velocity=record.velocity,
                delivered=frozenset(record.delivered),
                next_seq=record.next_seq,
                safe=(
                    None if record.safe is None
                    else (record.safe.complement, record.safe.codes)
                ),
                impact=self.impact_index.region_of(sub_id),
            )
            for sub_id, record in self.subscribers.items()
        ]

    def recover(self) -> int:
        """Rebuild state from the latest snapshot plus the journal tail.

        Replay drives the tail records through the normal public
        operations with journaling suspended; the BEQ-tree and impact
        index are rebuilt deterministically because events re-enter in
        their original order.  Notifications produced during replay are
        discarded (the transport is typically not attached yet) — the
        per-subscriber ``delivered`` sets converge to the pre-crash
        truth, and reconnecting clients reconcile the client-visible
        stream through :meth:`resync`.  Returns the number of tail
        records applied; calling :meth:`recover` again is a no-op (every
        record is gated on ``applied_seq``).
        """
        if self.journal is None:
            raise JournalError("server has no journal configured")
        loaded = self.journal.read_snapshot()
        if loaded is not None and loaded[0] > self.applied_seq:
            seq, body = loaded
            self._restore_snapshot(decode_snapshot(body))
            self.applied_seq = seq
        applied = 0
        self.journal.suspended = True
        try:
            for record in self.journal.records(after_seq=self.applied_seq):
                try:
                    getattr(self, record.method)(*record.args)
                except ValueError:
                    # The publish was journaled (WAL-before-apply) but
                    # then failed validation without mutating anything;
                    # it fails identically on replay, so skipping it is
                    # exact.
                    if record.method not in PUBLISHES:
                        raise
                self.applied_seq = record.seq
                applied += 1
        finally:
            self.journal.suspended = False
        self.metrics.recovered_records += applied
        return applied

    def _restore_snapshot(self, image: ServerSnapshot) -> None:
        self._store_events(image.events)
        self._arrival_times = deque(image.arrival_times)
        self._started_at = image.started_at
        for name, value in image.counters.items():
            # Tolerate counters from other builds: restore what exists.
            if not hasattr(self.metrics, name):
                continue
            if isinstance(getattr(self.metrics, name), float):
                setattr(self.metrics, name, float(value))
            else:
                setattr(self.metrics, name, int(value))
        for sub in image.subscribers:
            record = SubscriberRecord(
                sub.subscription,
                sub.location,
                sub.velocity,
                delivered=set(sub.delivered),
            )
            record.next_seq = sub.next_seq
            if sub.safe is not None:
                complement, codes = sub.safe
                record.safe = SafeRegion(self.grid, codes, complement)
            self.subscribers[sub.subscription.sub_id] = record
            self.subscription_index.insert(sub.subscription)
            if sub.impact is not None:
                complement, codes = sub.impact
                self.impact_index.replace_region(
                    sub.subscription.sub_id, ImpactRegion(self.grid, codes, complement)
                )
        # Recovery invariant (DESIGN.md §13): a restored record starts
        # with nothing derived — no retained field, no repair drift
        # state.  The first post-restart type-II event falls back to a
        # full construction instead of carving against a field built by
        # the pre-crash process.

    def close(self) -> None:
        """Release the journal's file handle (a no-op without one)."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ElapsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Aggregate views (shared surface with ShardedElapsServer)
    # ------------------------------------------------------------------
    def merged_metrics(self) -> CommunicationStats:
        """The full counter view; a sharded server merges its workers here."""
        return self.metrics

    def merged_registry(self) -> MetricsRegistry:
        """The full observability view (counters + span histograms)."""
        return self.registry

    def configure_tracing(self, slow_threshold: Optional[float]) -> None:
        """Set the duration (seconds) at or above which a span is logged
        as slow; ``None`` logs none."""
        self.tracer.slow_threshold = slow_threshold

    def corpus_matches(self, expression) -> List[Event]:
        """Every live event be-matching ``expression`` (audits/oracles)."""
        return self.event_index.be_match(expression)

    def delivered_ids(self, sub_id: int) -> FrozenSet[int]:
        """The ids this server has delivered to ``sub_id`` so far."""
        return frozenset(self.subscribers[sub_id].delivered)

    # ------------------------------------------------------------------
    # Region construction
    # ------------------------------------------------------------------
    def _refresh_location(self, record: SubscriberRecord) -> None:
        answer = self.transport.locate(record.subscription.sub_id)
        if answer is not None:
            record.location, record.velocity = answer

    def _matching_field(self, record: SubscriberRecord):
        if self.config.matching_mode == "ondemand":
            field = record.lazy_field
            if field is None:
                repair = self.config.repair
                field = LazyBEQField(
                    self.grid,
                    self.event_index,
                    record.subscription.expression,
                    record.subscription.radius,
                    excluded_ids=record.delivered,
                    holders=self._field_holders if repair else None,
                    owner=record.subscription.sub_id,
                )
                if repair:
                    record.lazy_field = field
            return field
        # Full mode: materialise every be-matching event upfront (the
        # paper's "-BE" variants route this through k-index; the work is
        # equivalent — a full-corpus boolean match).
        events = [
            event
            for event in self.event_index.be_match(record.subscription.expression)
            if event.event_id not in record.delivered
        ]
        self.metrics.events_scanned += len(self.event_index)
        return StaticMatchingField(
            self.grid, [event.location for event in events], record.subscription.radius
        )

    def _construct(self, record: SubscriberRecord, now: int) -> None:
        started = time.perf_counter()
        try:
            with self.tracer.span("construct"):
                self._construct_inner(record, now)
        finally:
            self.metrics.server_seconds += time.perf_counter() - started

    def _construct_inner(self, record: SubscriberRecord, now: int) -> None:
        speed = max(record.velocity.norm(), MIN_SPEED)
        direction = record.velocity.normalized().scaled(speed)
        if direction == Point(0.0, 0.0):
            direction = Point(speed, 0.0)
        field = self._matching_field(record)
        # A reused field's counter is cumulative across constructions;
        # account only this construction's scans.
        scanned_before = getattr(field, "events_scanned", 0)
        regrowths_before = field.view_regrowths
        request = ConstructionRequest(
            location=record.location,
            velocity=direction,
            matching_field=field,
            stats=self.system_stats(now),
        )
        pair = self.strategy.construct(request)
        record.safe = pair.safe
        if pair.safe.is_empty():
            # Degenerate case: the subscriber's own cell is unsafe, so the
            # client reports every timestamp.  The impact region must still
            # cover the notification circle (Lemma 1), so install the
            # dilation of the subscriber's cell — which is what the last
            # timestamp installed unless the subscriber crossed a cell edge.
            self.metrics.degenerate_constructions += 1
            cell = self.grid.cell_of(record.location)
            if cell != record.degenerate_cell:
                own = self.grid.code_of(record.location)
                codes = self.grid.dilate_codes(
                    np.array([own]), record.subscription.radius, inclusive=True
                )
                self.impact_index.replace(
                    record.subscription.sub_id, np.union1d(codes, [own])
                )
                record.degenerate_cell = cell
        else:
            record.degenerate_cell = None
            self.impact_index.replace_region(record.subscription.sub_id, pair.impact)
            max_cells = getattr(self.strategy, "max_cells", None)
            if max_cells is not None and pair.safe.area_cells() >= max_cells:
                self.metrics.capped_constructions += 1
        if self.config.repair:
            record.repair = RepairState(
                pair=pair,
                cells_at_build=pair.safe.area_cells(),
                ne_estimate=pair.matching_in_impact or 0,
            )
        self.metrics.constructions += 1
        self.metrics.cells_examined += pair.cells_examined
        self.metrics.events_scanned += getattr(field, "events_scanned", 0) - scanned_before
        self.metrics.view_regrowths += field.view_regrowths - regrowths_before
        self._ship_region(record)

    def _ship_region(self, record: SubscriberRecord) -> None:
        """Account and push one full safe region to its client."""
        with self.tracer.span("ship"):
            self.metrics.count_region_push(record.subscription.sub_id, record.safe)
            self.transport.ship_region(record.subscription.sub_id, record.safe)

    # ------------------------------------------------------------------
    # Incremental repair (the repair=True alternative to _construct)
    # ------------------------------------------------------------------
    def _repair(self, record: SubscriberRecord, event_points: List[Point]) -> bool:
        """Carve the new events' dilations out of the cached safe region.

        Safety is monotone in the event corpus: a new event can only make
        cells unsafe, and exactly the cells within the notification radius
        of it (Definition 1).  Subtracting each event's dilation disk from
        the cached region therefore yields a valid safe region, and the
        impact region installed at the last full construction remains a
        covering superset (Definition 2) — it stays in the index untouched,
        which is most of the saving.  Returns False (caller falls back to
        :meth:`_construct`) when no repairable state exists or the
        :class:`~repro.core.RepairBudget` says the drift from the balance
        point is no longer worth it.
        """
        state = record.repair
        if state is None or record.safe is None:
            return False
        started = time.perf_counter()
        try:
            with self.tracer.span("repair"):
                return self._repair_inner(record, state, event_points)
        finally:
            self.metrics.server_seconds += time.perf_counter() - started

    def _repair_inner(
        self,
        record: SubscriberRecord,
        state: RepairState,
        event_points: List[Point],
    ) -> bool:
        unsafe = dilate_points(self.grid, event_points, record.subscription.radius)
        repaired, removed = record.safe.subtract(unsafe)
        state.removed_since_build += len(removed)
        state.ne_estimate += len(event_points)
        reason = self.repair_budget.rebuild_reason(
            live_cells=repaired.area_cells(),
            cells_at_build=state.cells_at_build,
            removed_since_build=state.removed_since_build,
            beta=getattr(self.strategy, "beta", 1.0),
            bm_at_build=state.pair.last_accepted_bm,
            ne_at_build=state.pair.matching_in_impact or 0,
            ne_estimate=state.ne_estimate,
        )
        if reason is not None:
            return False
        record.safe = repaired
        self.metrics.repairs += 1
        self._ship_repaired(record, removed)
        return True

    def _ship_repaired(self, record: SubscriberRecord, removed: np.ndarray) -> None:
        """Ship a repair to the client: the removed cells, or nothing.

        An empty removal means the dilations missed the region entirely —
        the client's copy is already exact, so no bytes move (the cheapest
        round of all).  Otherwise the transport's ``ship_delta`` gets the
        removed codes (framed as a ``SafeRegionDelta`` by the TCP
        layer); the base :class:`~repro.system.config.Transport` degrades
        it to a full region push for transports that predate deltas.
        """
        if not removed.size:
            return
        with self.tracer.span("ship"):
            sub_id = record.subscription.sub_id
            self.metrics.count_region_delta(sub_id, self.grid, removed)
            self.transport.ship_delta(sub_id, removed, record.safe)
