"""Spatially sharded Elaps: K workers behind one coordinator.

The grid is split into K contiguous **column bands** (rectangular shards
of ``grid.space``); each band is owned by a full, independent
:class:`~repro.system.server.ElapsServer` — its own BEQ-Tree, its own
subscription index, its own impact index — built from one shared
:class:`~repro.system.config.ServerConfig`.  The coordinator on top
implements the single-server public surface, so the TCP layer, the
simulation, the CLI and the benchmarks drive a fleet exactly like they
drive one server.

Routing rules (DESIGN.md §12):

* **Events** go to exactly one shard — the one whose band contains the
  event point.  Each shard therefore holds a disjoint slice of the event
  corpus, and the owning shard is the sole delivery authority for its
  events: corpus matching can never duplicate a notification across
  workers.
* **Subscribers** are *multi-homed*: a subscriber lives on every shard
  whose band its notification circle or dilated safe region overlaps
  (dilation by the notification radius — the impact reach).  Definition 1
  is a conjunction over events, so the region that is safe against *all*
  events is the **intersection** of the per-shard safe regions; the
  coordinator holds that intersection and ships it to the client.
  Per-shard Lemma 1 keeps each worker's impact region covering the
  notification circle whenever the subscriber sits inside the *held*
  (intersection) region, because the held region is a subset of every
  shard's own region.
* **Re-homing** happens whenever a reconstruction (or a location change)
  moves the dilated held region across a band boundary: the coordinator
  subscribes the subscriber on the newly-overlapped shards.  Homes are
  sticky — a shard once homed keeps its record until unsubscribe — so a
  shard's per-subscriber ``delivered`` set never forgets, and the
  coordinator keeps a global delivered set as the final dedup guard for
  the re-homing corpus-match path.

Execution is pluggable through a
:class:`~repro.system.executors.ShardExecutor`, and a shard is reached
exactly one way: ``executor.run({shard_id: (method, args)})``, which
hands back each shard's reply — its result or its error, and the region
shipments the command made.  One coordinator method, :meth:`_run`,
reads every reply: it folds the shipments into the coordinator's region
bookkeeping in shard order, raises the lowest failing shard's error,
and returns the results.  Nothing in the coordinator changes while a
command runs, whichever executor ran it, except the last known location
a ``locate`` ping refreshes.

Bands need not stay static: with a
:class:`~repro.system.config.RebalancePolicy` the coordinator tracks
per-column event load and moves the column boundaries when one band runs
hot (``partition_columns`` accepts explicit boundaries).  A rebalance
migrates events between shards through
:meth:`ElapsServer.extract_events_in_columns` + ``bootstrap`` and
re-homes subscribers through the ordinary sticky multi-homing machinery,
so client-visible deliveries are unchanged — byte-identical under
:class:`SerialExecutor`.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field as dataclass_field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..core import SafeRegion, SafeRegionStrategy, SystemStats
from ..expressions import Event, Subscription
from ..geometry import Grid, Point, Rect, deinterleave
from .config import RebalancePolicy, ServerConfig, Transport
from .executors import Command, SerialExecutor, ShardExecutor
from .metrics import CommunicationStats
from .observability import MetricsRegistry
from .protocol import (
    LocationPing,
    LocationReport,
    ResyncMessage,
    message_bytes,
    subscribe_message_for,
)
from .server import ElapsServer, Notification

#: the bits of a Morton code that carry a cell's column ``i``
_X_BITS = 0x5555555555555555

__all__ = [
    "RebalancePolicy",
    "ShardSpec",
    "ShardedElapsServer",
    "partition_columns",
]


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the space: a contiguous band of grid columns."""

    shard_id: int
    #: owned grid columns ``[col_lo, col_hi)``
    col_lo: int
    col_hi: int
    #: the rectangle of space the band covers
    rect: Rect


def partition_columns(
    grid: Grid, shards: Union[int, Sequence[int]]
) -> List[ShardSpec]:
    """Split ``grid.space`` into contiguous column bands.

    ``shards`` is either a band count — the split is then maximally even
    (sizes differ by at most one column) — or an explicit boundary
    sequence ``[0, c1, ..., grid.n]``, strictly increasing, which is how
    load-adaptive repartitioning expresses uneven bands.  Either way
    bands cover every column exactly once and are never empty — which
    caps the band count at the grid resolution.
    """
    if isinstance(shards, int):
        if shards < 1:
            raise ValueError(f"shard count must be positive, got {shards}")
        if shards > grid.n:
            raise ValueError(
                f"cannot split {grid.n} grid columns into {shards} shards"
            )
        bounds = [round(k * grid.n / shards) for k in range(shards + 1)]
    else:
        bounds = [int(b) for b in shards]
        if len(bounds) < 2:
            raise ValueError(f"need at least two boundaries, got {bounds}")
        if bounds[0] != 0 or bounds[-1] != grid.n:
            raise ValueError(
                f"boundaries must run from 0 to {grid.n}, got {bounds}"
            )
        if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
            raise ValueError(
                f"boundaries must be strictly increasing (no empty bands): "
                f"{bounds}"
            )
    specs = []
    for shard_id in range(len(bounds) - 1):
        lo, hi = bounds[shard_id], bounds[shard_id + 1]
        rect = Rect(
            grid.space.x_min + lo * grid.cell_width,
            grid.space.y_min,
            grid.space.x_min + hi * grid.cell_width,
            grid.space.y_max,
        )
        specs.append(ShardSpec(shard_id, lo, hi, rect))
    return specs


# ----------------------------------------------------------------------
# Coordinator-side state
# ----------------------------------------------------------------------
@dataclass
class ShardedSubscriberRecord:
    """The coordinator's view of one subscriber."""

    subscription: Subscription
    location: Point
    velocity: Point
    #: the shard containing the subscribe-time location
    owner: int
    #: every shard currently holding a full per-shard record (sticky)
    homes: Set[int] = dataclass_field(default_factory=set)
    #: global delivered-event ids — the final dedup guard
    delivered: Set[int] = dataclass_field(default_factory=set)
    #: the latest safe region shipped by each homed shard
    shard_regions: Dict[int, SafeRegion] = dataclass_field(default_factory=dict)
    #: the held region: the intersection of ``shard_regions`` over homes
    safe: Optional[SafeRegion] = None
    #: coordinator-level delivery sequence number; the coordinator
    #: re-stamps every fresh notification so the client sees one gapless
    #: stream regardless of which shard produced the delivery
    next_seq: int = 0


@dataclass
class _Dirty:
    """Pending region changes for one subscriber within one operation."""

    #: a shard shipped a *full* region — the held intersection must be
    #: recomputed and re-shipped in full
    full: bool = False
    #: the code arrays repairs carved out (delta path; ignored once
    #: ``full`` is set)
    removed: List[np.ndarray] = dataclass_field(default_factory=list)


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ShardedElapsServer:
    """K-shard Elaps fleet behind the single-server public surface.

    Construction mirrors ``ElapsServer(grid, strategy, config)``; every
    worker is built from the *same* :class:`ServerConfig`.  ``strategy``
    may be a :class:`~repro.core.SafeRegionStrategy` instance (shared by
    all workers — the bundled strategies are stateless per ``construct``
    call) or a zero-argument factory producing one fresh strategy per
    shard.
    """

    def __init__(
        self,
        grid: Grid,
        strategy,
        config: Optional[ServerConfig] = None,
        *,
        shards: int = 4,
        executor: Optional[ShardExecutor] = None,
        transport: Optional[Transport] = None,
        event_index_factory: Optional[Callable[[], object]] = None,
        subscription_index_factory: Optional[Callable[[], object]] = None,
        rebalance: Optional[RebalancePolicy] = None,
    ) -> None:
        self.grid = grid
        self.config = config or ServerConfig()
        self.specs = partition_columns(grid, shards)
        # "is None", not "or": an executor wrapper may define __len__
        self.executor = executor if executor is not None else SerialExecutor()
        #: the client-facing seam, exactly as on a single server
        self.transport = transport if transport is not None else Transport()
        #: boundary-move policy; ``None`` keeps the bands static
        self.rebalance_policy = rebalance

        if isinstance(strategy, SafeRegionStrategy):
            factory: Callable[[], SafeRegionStrategy] = lambda: strategy
        elif callable(strategy):
            factory = strategy
        else:
            raise TypeError(
                "strategy must be a SafeRegionStrategy or a zero-argument "
                f"factory, got {strategy!r}"
            )
        # Per-band durability: each worker journals autonomously under a
        # ``band-<k>/`` subdirectory of the configured journal path (the
        # one place workers deviate from the shared config).
        def worker_config(spec: ShardSpec) -> ServerConfig:
            """This band's config: shared knobs, band-local journal."""
            if self.config.journal is None:
                return self.config
            return self.config.with_(journal=self.config.journal.for_shard(spec.shard_id))

        # Each band's server is built *by the executor* — in-process, or
        # inside a forked child, where the builder closure carries the
        # grid, the strategy factory and the config across the fork
        # without pickling.
        def make_builder(spec: ShardSpec) -> Callable[[Transport], ElapsServer]:
            """A builder closure for this band, run where the band lives."""
            band_config = worker_config(spec)

            def build(worker_transport: Transport) -> ElapsServer:
                """Construct the band's server around the executor's transport."""
                return ElapsServer(
                    grid,
                    factory(),
                    band_config,
                    event_index=(
                        event_index_factory() if event_index_factory else None
                    ),
                    subscription_index=(
                        subscription_index_factory()
                        if subscription_index_factory
                        else None
                    ),
                    transport=worker_transport,
                )

            return build

        self.executor.launch(
            [make_builder(spec) for spec in self.specs],
            grid=grid,
            locate=self._locate_subscriber,
        )
        #: column index → owning shard id
        self._shard_by_column = self._column_map(self.specs)

        self.subscribers: Dict[int, ShardedSubscriberRecord] = {}
        #: coordinator-level counters: the client's wire, one frame per
        #: frame a client sends or receives (the subscribe, report and
        #: resync up, the pings a shard asks for, the deduplicated
        #: notifications and the intersected region down), and one
        #: location-update round per client report; the per-worker
        #: activity lives in each shard's own metrics and is folded in by
        #: :meth:`merged_metrics`
        self.metrics = CommunicationStats()
        self.registry = MetricsRegistry(self.metrics)
        self.tracer = self.registry.tracer
        self._dirty: Dict[int, _Dirty] = {}
        #: per-column published-event counters — the load signal the
        #: rebalance policy cuts new boundaries from
        self._column_load: List[float] = [0.0] * grid.n
        self._events_seen = 0
        self._events_since_check = 0
        #: boundary moves performed so far
        self.rebalances = 0

    @property
    def shard_servers(self) -> List[ElapsServer]:
        """The live shard servers of an in-process fleet, for tests and
        audits — the executor's own list; a process fleet has none to
        show (it exposes commands, not stand-ins)."""
        return self.executor.shard_servers

    def _run(self, commands: Mapping[int, Command]) -> Dict[int, object]:
        """Run ``commands`` on the executor and read every reply.

        The one place a shard's answer reaches the coordinator: every
        shard's region shipments are folded in ascending shard order —
        a failed command's too, they are real shard state — then the
        lowest failing shard's exception is raised, the original one
        with its ``_remote_traceback`` attached.  Otherwise the results,
        keyed by shard id.
        """
        replies = self.executor.run(commands)
        results: Dict[int, object] = {}
        errors = []
        for shard_id in sorted(replies):
            reply = replies[shard_id]
            for shipment in reply[-1]:
                self._fold_shipment(shard_id, *shipment)
            if reply[0] == "done":
                results[shard_id] = reply[1]
            else:
                errors.append(reply)
        if errors:
            _, exc, remote_traceback, _ = errors[0]
            exc._remote_traceback = remote_traceback
            raise exc
        return results

    def _run_all(self, method: str, *args) -> List[object]:
        """One command to every shard; the results in shard order."""
        command = (method, args)
        results = self._run({spec.shard_id: command for spec in self.specs})
        return [results[spec.shard_id] for spec in self.specs]

    def _run_absorbing(
        self,
        shard_ids,
        method: str,
        args: Tuple,
        notifications: List[Notification],
    ) -> None:
        """Fan one notifying command out to ``shard_ids``; absorb each
        shard's notifications in ascending shard order."""
        command = (method, args)
        results = self._run({shard_id: command for shard_id in shard_ids})
        for shard_id in sorted(results):
            shard_notifications, _ = results[shard_id]
            notifications.extend(self._absorb(shard_notifications))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """The shard count K."""
        return len(self.specs)

    def _column_map(self, specs: Sequence[ShardSpec]) -> List[int]:
        """The ``column → shard_id`` table of a band layout."""
        table = [0] * self.grid.n
        for spec in specs:
            for column in range(spec.col_lo, spec.col_hi):
                table[column] = spec.shard_id
        return table

    def shard_of_point(self, p: Point) -> int:
        """The shard whose band contains ``p``."""
        return self._shard_by_column[self.grid.cell_of(p)[0]]

    def _by_shard(self, events) -> Dict[int, List[Event]]:
        """The events grouped by owning shard, their order kept."""
        groups: Dict[int, List[Event]] = {}
        for event in events:
            groups.setdefault(self.shard_of_point(event.location), []).append(event)
        return groups

    def _column_reach(self, radius: float) -> int:
        """Columns a dilation by ``radius`` can add on either side."""
        return int(math.ceil(radius / self.grid.cell_width)) + 1

    def _shards_in_columns(self, lo: int, hi: int) -> Set[int]:
        lo = max(lo, 0)
        hi = min(hi, self.grid.n - 1)
        if lo > hi:
            return set()
        return set(self._shard_by_column[lo : hi + 1])

    def _desired_homes(self, record: ShardedSubscriberRecord) -> Set[int]:
        """Every shard the homing invariant requires right now.

        The invariant that makes sharding lossless: a subscriber is homed
        on (a) its owner shard, (b) every shard overlapping the columns
        of its notification circle at the last known location — while
        the held region is empty the client reports every tick, and this
        keeps the shard holding any within-radius event responsible for
        it — and (c) every shard overlapping the dilation of the held
        safe region, so an event that could invalidate the held region
        always lands on a shard that knows the subscriber (per-shard
        Definition 2).
        """
        radius = record.subscription.radius
        reach = self._column_reach(radius)
        column = self.grid.cell_of(record.location)[0]
        homes = {record.owner}
        homes |= self._shards_in_columns(column - reach, column + reach)
        held = record.safe
        if held is not None and not held.is_empty():
            if held.complement:
                return set(range(self.shards))
            # a code's x bits order its cells by column (the spread keeps
            # the order of i), so the extreme columns are two reductions
            x_bits = held.codes & _X_BITS
            homes |= self._shards_in_columns(
                deinterleave(int(x_bits.min()))[0] - reach,
                deinterleave(int(x_bits.max()))[0] + reach,
            )
        return homes

    # ------------------------------------------------------------------
    # What shards ship and ask
    # ------------------------------------------------------------------
    def _fold_shipment(self, shard_id: int, kind: str, sub_id: int, *shipped) -> None:
        """Fold one ``("region", sub_id, region)`` or ``("delta", sub_id,
        removed, region)`` shipment into the shard's region and the
        subscriber's pending change; :meth:`_settle` drains those."""
        record = self.subscribers.get(sub_id)
        if record is None:
            return
        record.shard_regions[shard_id] = shipped[-1]
        dirty = self._dirty.setdefault(sub_id, _Dirty())
        if kind == "region":
            dirty.full = True
        else:
            dirty.removed.append(shipped[0])

    def _locate_subscriber(self, sub_id: int) -> Optional[Tuple[Point, Point]]:
        """A shard's location ping: one ping down the client's wire and
        one report up, whichever shard asked."""
        answer = self.transport.locate(sub_id)
        record = self.subscribers.get(sub_id)
        if record is None:
            return answer
        if answer is not None:
            record.location, record.velocity = answer
        self.metrics.wire_bytes_down += message_bytes(LocationPing(sub_id))
        self.metrics.wire_bytes_up += message_bytes(
            LocationReport(sub_id, record.location, record.velocity)
        )
        return answer

    # ------------------------------------------------------------------
    # Held-region maintenance
    # ------------------------------------------------------------------
    def _recompute_held(self, record: ShardedSubscriberRecord) -> None:
        held: Optional[SafeRegion] = None
        for shard_id in sorted(record.homes):
            region = record.shard_regions.get(shard_id)
            if region is None:
                continue
            held = region if held is None else held.intersected_with(region)
        record.safe = held

    def _absorb(self, notifications: Sequence[Notification]) -> List[Notification]:
        """Dedup shard notifications against the global delivered sets.

        Fresh notifications are re-stamped with the coordinator-level
        sequence number: each worker numbers its own deliveries, but the
        client sees one stream, so the coordinator's counter is the one
        that must be gapless.
        """
        fresh: List[Notification] = []
        for notification in notifications:
            record = self.subscribers.get(notification.sub_id)
            if record is None or notification.event.event_id in record.delivered:
                continue
            record.delivered.add(notification.event.event_id)
            record.next_seq += 1
            fresh.append(dataclasses.replace(notification, seq=record.next_seq))
        self.metrics.count_notifications(fresh)
        return fresh

    def _rehome(
        self,
        record: ShardedSubscriberRecord,
        now: int,
        notifications: List[Notification],
    ) -> None:
        """Subscribe the record on every newly-required shard.

        A new home runs the full subscribe flow — its corpus matches
        within the radius come back as notifications (deduped by
        :meth:`_absorb`), and its freshly built region lands in
        ``shard_regions`` with the reply, shrinking the held
        intersection.  Growing the held region's column span can demand
        further homes, so this loops to the fixpoint (at most K rounds).
        """
        while True:
            new = self._desired_homes(record) - record.homes
            if not new:
                return
            record.homes |= new
            self._subscribe_on(new, record, now, notifications)

    def _subscribe_on(
        self,
        shard_ids,
        record: ShardedSubscriberRecord,
        now: int,
        notifications: List[Notification],
    ) -> None:
        """Run the subscribe flow for ``record`` on ``shard_ids``: absorb
        their corpus matches, then recompute the held region from the
        regions they shipped."""
        self._run_absorbing(
            shard_ids,
            "subscribe",
            (record.subscription, record.location, record.velocity, now),
            notifications,
        )
        self._recompute_held(record)

    def _prune_homes(
        self,
        record: ShardedSubscriberRecord,
        now: int,
        notifications: List[Notification],
    ) -> None:
        """Drop every home the invariant no longer requires.

        Homes are sticky across ordinary movement (re-subscribing on
        return would re-run a corpus match), but across a *rebalance*
        stale homes are pure erosion: a migrated subscriber would stay
        registered on its pre-move owner forever, and after a few
        boundary moves every shard would hold every subscriber — exactly
        the load the repartition exists to split.  Dropping a
        non-required home only removes duplicate candidate matches; the
        required set still covers the owner, the notification circle and
        the held region's dilation, which is what makes sharding
        lossless.  Removing a region from the held intersection can only
        grow it, so the grown span may demand homes back — re-home to
        the fixpoint afterwards.
        """
        stale = record.homes - self._desired_homes(record)
        if not stale:
            return
        record.homes -= stale
        for shard_id in stale:
            record.shard_regions.pop(shard_id, None)
        self._run(
            {
                shard_id: ("unsubscribe", (record.subscription.sub_id,))
                for shard_id in stale
            }
        )
        self._recompute_held(record)
        self._rehome(record, now, notifications)

    def _settle(self, now: int, notifications: List[Notification]) -> None:
        """Drain pending region changes: merge, re-home, ship once.

        Every public operation ends here.  Shard constructions recorded
        in ``_dirty`` are folded into the held intersections; re-homing
        may trigger further constructions (drained in the next round);
        when the fleet is quiet each touched subscriber gets exactly one
        client-facing ship — a delta when only repairs happened, a full
        region otherwise.
        """
        shipped: Dict[int, object] = {}
        while True:
            dirty, self._dirty = self._dirty, {}
            if not dirty:
                break
            for sub_id, change in dirty.items():
                record = self.subscribers.get(sub_id)
                if record is None:
                    continue
                if change.full or record.safe is None:
                    self._recompute_held(record)
                    shipped[sub_id] = "full"
                else:
                    record.safe, actually_removed = record.safe.subtract(
                        np.unique(np.concatenate(change.removed))
                    )
                    if shipped.get(sub_id) != "full" and actually_removed.size:
                        shipped.setdefault(sub_id, []).append(actually_removed)
                self._rehome(record, now, notifications)
        transport = self.transport
        for sub_id, what in shipped.items():
            record = self.subscribers.get(sub_id)
            if record is None or record.safe is None:
                continue
            if what == "full":
                self.metrics.count_region_push(sub_id, record.safe)
                transport.ship_region(sub_id, record.safe)
            elif what:
                removed = np.unique(np.concatenate(what))
                self.metrics.count_region_delta(sub_id, self.grid, removed)
                transport.ship_delta(sub_id, removed, record.safe)

    # ------------------------------------------------------------------
    # Public surface (mirrors ElapsServer)
    # ------------------------------------------------------------------
    def bootstrap(self, events) -> None:
        """Load the initial event database, routed to the owning shards."""
        self._run(
            {
                shard_id: ("bootstrap", (shard_events,))
                for shard_id, shard_events in self._by_shard(events).items()
            }
        )

    def subscribe(
        self,
        subscription: Subscription,
        location: Point,
        velocity: Point,
        now: int = 0,
    ) -> Tuple[List[Notification], SafeRegion]:
        """Register a subscriber on every shard the invariant requires."""
        existing = self.subscribers.get(subscription.sub_id)
        record = ShardedSubscriberRecord(
            subscription=subscription,
            location=location,
            velocity=velocity,
            owner=self.shard_of_point(location),
            delivered=existing.delivered if existing is not None else set(),
        )
        # Pop-then-insert so a resubscriber moves to the *end* of the
        # coordinator's subscribe order — exactly where a single server's
        # subscription index puts it (delete + insert).  The order is
        # what :meth:`ElapsServer.resequence_subscriptions` restores on
        # shards that gain members during a rebalance.
        self.subscribers.pop(subscription.sub_id, None)
        self.subscribers[subscription.sub_id] = record
        if existing is not None:
            self.metrics.resubscribes += 1
        self.metrics.wire_bytes_up += message_bytes(
            subscribe_message_for(subscription, location, velocity)
        )
        notifications: List[Notification] = []
        if existing is not None and existing.homes:
            # Resubscribe: refresh the record on every shard that already
            # holds one (their delivered sets survive, matching the
            # single server's reconnect semantics).
            record.homes = set(existing.homes)
            self._subscribe_on(record.homes, record, now, notifications)
        self._rehome(record, now, notifications)
        self._settle(now, notifications)
        return notifications, record.safe

    def unsubscribe(self, sub_id: int) -> None:
        """Drop the subscriber from the coordinator and every home."""
        record = self.subscribers.pop(sub_id, None)
        if record is None:
            raise KeyError(f"unknown subscriber {sub_id}")
        self._dirty.pop(sub_id, None)
        if record.homes:
            self._run(
                {shard_id: ("unsubscribe", (sub_id,)) for shard_id in record.homes}
            )

    def publish(self, event: Event, now: int) -> List[Notification]:
        """Route one event to its owning shard: a batch of one."""
        return self.publish_batch([event], now)

    def publish_batch(self, events: List[Event], now: int) -> List[Notification]:
        """Split a burst by owning shard; merge notifications in order.

        Each event belongs to exactly one shard, so merging the per-shard
        notification lists by original event position (a stable sort)
        reproduces the single server's order: within one event the
        notified subscribers all came from that event's shard, already in
        subscription-index order.

        Every worker runs its own subscription matcher on its slice
        (``SubscriptionIndex.match_batch``, with its own probe memos); the
        ``match_batch_probes`` / ``match_probe_memo_hits`` /
        ``partitions_pruned`` counters it accumulates merge through
        :meth:`merged_metrics` like every other field.
        """
        events = list(events)
        if not events:
            return []
        results = self._run(
            {
                shard_id: ("publish_batch", (shard_events, now))
                for shard_id, shard_events in self._by_shard(events).items()
            }
        )
        position = {
            event.event_id: index for index, event in enumerate(events)
        }
        merged: List[Notification] = []
        for shard_id in sorted(results):
            merged.extend(results[shard_id])
        merged.sort(key=lambda n: position.get(n.event.event_id, len(events)))
        notifications = self._absorb(merged)
        self._note_load(events)
        self._settle(now, notifications)
        self._maybe_rebalance(now, notifications)
        return notifications

    def report_location(
        self, sub_id: int, location: Point, velocity: Point, now: int
    ) -> Tuple[List[Notification], SafeRegion]:
        """Fan a client report out to every home; intersect the regions."""
        record = self.subscribers[sub_id]
        record.location = location
        record.velocity = velocity
        self.metrics.location_update_rounds += 1
        self.metrics.wire_bytes_up += message_bytes(
            LocationReport(sub_id, location, velocity)
        )
        notifications: List[Notification] = []
        self._run_absorbing(
            record.homes,
            "report_location",
            (sub_id, location, velocity, now),
            notifications,
        )
        self._settle(now, notifications)
        return notifications, record.safe

    def resync(
        self,
        sub_id: int,
        location: Point,
        velocity: Point,
        received,
        now: int,
    ) -> Tuple[List[Notification], SafeRegion]:
        """Reconcile a reconnecting client against every home."""
        record = self.subscribers[sub_id]
        received = tuple(received)
        record.location = location
        record.velocity = velocity
        record.delivered = set(received)
        self.metrics.resyncs += 1
        self.metrics.wire_bytes_up += message_bytes(
            ResyncMessage(sub_id, location, velocity, received)
        )
        notifications: List[Notification] = []
        self._run_absorbing(
            record.homes,
            "resync",
            (sub_id, location, velocity, received, now),
            notifications,
        )
        self._settle(now, notifications)
        self.metrics.redeliveries += len(notifications)
        return notifications, record.safe

    def expire_due_events(self, now: int) -> int:
        """Expire on every shard; Lemma 4 — still no client traffic."""
        return sum(self._run_all("expire_due_events", now))

    def rebuild_all(self, now: int) -> None:
        """Rebuild every record on every shard with fresh statistics."""
        self._run_all("rebuild_all", now)
        self._settle(now, [])

    # ------------------------------------------------------------------
    # Load-adaptive repartitioning (DESIGN.md §15)
    # ------------------------------------------------------------------
    def _bounds(self) -> List[int]:
        """The current column boundaries ``[0, c1, ..., grid.n]``."""
        return [spec.col_lo for spec in self.specs] + [self.grid.n]

    def _note_load(self, events: Sequence[Event]) -> None:
        """Record published events in the per-column load counters."""
        cell_of = self.grid.cell_of
        load = self._column_load
        for event in events:
            load[cell_of(event.location)[0]] += 1.0
        self._events_seen += len(events)
        self._events_since_check += len(events)

    def shard_loads(self) -> List[float]:
        """The rebalance signal: observed event load per current band
        (the sum of its column counters)."""
        return [
            sum(self._column_load[spec.col_lo : spec.col_hi])
            for spec in self.specs
        ]

    def _balanced_bounds(self) -> List[int]:
        """Column boundaries giving every band an equal share of the
        observed load — the equi-depth cut over the column histogram.

        Each cut lands where the load prefix sum crosses ``k/K`` of the
        total, clamped so no band goes empty (every band keeps at least
        one column, matching :func:`partition_columns`'s contract).
        """
        n = self.grid.n
        shards = len(self.specs)
        prefix = [0.0]
        for value in self._column_load:
            prefix.append(prefix[-1] + value)
        total = prefix[-1]
        bounds = [0]
        for k in range(1, shards):
            lo = bounds[-1] + 1
            hi = n - (shards - k)
            cut = bisect.bisect_left(prefix, total * k / shards, lo=lo, hi=hi)
            bounds.append(cut)
        bounds.append(n)
        return bounds

    def _maybe_rebalance(self, now: int, notifications: List[Notification]) -> None:
        """Policy-driven check after a publish: move the boundaries when
        the hottest band's load share crosses the imbalance threshold."""
        policy = self.rebalance_policy
        if policy is None or len(self.specs) < 2:
            return
        if self._events_seen < policy.min_events:
            return
        if self._events_since_check < policy.check_every:
            return
        self._events_since_check = 0
        loads = self.shard_loads()
        total = sum(loads)
        if total <= 0.0:
            return
        if max(loads) <= policy.max_imbalance * (total / len(loads)):
            return
        bounds = self._balanced_bounds()
        if bounds == self._bounds():
            return
        self._rebalance_to(bounds, now, notifications)

    def rebalance_now(self, now: int = 0, bounds: Optional[Sequence[int]] = None) -> bool:
        """Force one boundary move, policy or no policy.

        With ``bounds`` the fleet re-cuts to exactly those column
        boundaries; without, it cuts to :meth:`_balanced_bounds` over the
        load observed so far (a no-op before any publish).  Returns True
        when the boundaries actually changed.  Useful for tests and for
        operators pre-warming a known hotspot.
        """
        if bounds is None:
            if not any(self._column_load):
                return False
            bounds = self._balanced_bounds()
        bounds = [int(b) for b in bounds]
        if bounds == self._bounds():
            return False
        self._rebalance_to(bounds, now, [])
        return True

    def _rebalance_to(
        self, bounds: Sequence[int], now: int, notifications: List[Notification]
    ) -> None:
        """Move the band boundaries to ``bounds``: migrate events,
        re-home subscribers, restore notification order, persist.

        The move emits no fresh client deliveries by construction: every
        live event within a subscriber's radius was already delivered
        under the homing invariant, so the corpus matches produced by
        re-homing are all absorbed as duplicates, and migration itself
        (extract + bootstrap) never runs arrival processing.  On the
        donor that is sound as it stands — Def. 1 is a conjunction over
        events, removing one can only grow true safe regions.  On the
        receiver it is not: a region built there before the hand-over
        was built without the moved events.  A *new* home is built by
        the re-home flow after them; a subscriber the receiver already
        homed re-runs the subscribe flow there, which rebuilds its
        region (and its matching artefacts) over the corpus as it now
        stands.
        """
        n = self.grid.n
        old_map = self._shard_by_column
        new_specs = partition_columns(self.grid, bounds)
        new_map = self._column_map(new_specs)
        if new_map == old_map:
            return

        def members() -> List[Set[int]]:
            """The subscriber ids homed on each shard right now."""
            homed: List[Set[int]] = [set() for _ in self.specs]
            for sub_id, record in self.subscribers.items():
                for shard_id in record.homes:
                    homed[shard_id].add(sub_id)
            return homed

        pre_members = members()
        # 1. Extract every moving column's events from its donor shard,
        #    as contiguous half-open ranges (journaled on the donor).
        donor_ranges: Dict[int, List[Tuple[int, int]]] = {}
        column = 0
        while column < n:
            donor = old_map[column]
            if new_map[column] == donor:
                column += 1
                continue
            start = column
            while (
                column < n
                and old_map[column] == donor
                and new_map[column] != donor
            ):
                column += 1
            donor_ranges.setdefault(donor, []).append((start, column))
        extracted = self._run(
            {
                donor: ("extract_events_in_columns", (tuple(ranges),))
                for donor, ranges in donor_ranges.items()
            }
        )
        # 2. Switch the routing map; from here on new operations land on
        #    the new owners.
        self.specs = new_specs
        self._shard_by_column = new_map
        # 3. Hand the moved events to their new owners (journaled there
        #    as a bootstrap), in deterministic arrival order.
        moved = [event for donor in sorted(extracted) for event in extracted[donor]]
        if moved:
            self.bootstrap(sorted(moved, key=lambda e: (e.arrived_at, e.event_id)))
        receivers = set(self._by_shard(moved))
        # 4. Rebuild every subscriber a receiver already homes — its
        #    region there predates the events just handed over — then
        #    re-home under the new map (owners may have changed; new homes
        #    run the same full subscribe flow, and all these corpus matches
        #    are deduped to nothing by _absorb), then prune the homes the
        #    invariant no longer requires under the new boundaries.
        rebuilt: Set[int] = set()
        for record in list(self.subscribers.values()):
            record.owner = self.shard_of_point(record.location)
            predating = record.homes & receivers
            if predating:
                rebuilt |= predating
                self._subscribe_on(predating, record, now, notifications)
            self._rehome(record, now, notifications)
            self._prune_homes(record, now, notifications)
        # 5. Restore single-server notification order on every shard
        #    that gained members or rebuilt one: a (re)subscribed
        #    subscriber sits at the end of the shard's index, out of
        #    subscribe order.
        resequence = rebuilt | {
            shard_id
            for shard_id, (after, before) in enumerate(zip(members(), pre_members))
            if after - before
        }
        if resequence:
            command = ("resequence_subscriptions", (tuple(self.subscribers),))
            self._run({shard_id: command for shard_id in resequence})
        self._settle(now, notifications)
        # 6. Age the load signal so the policy tracks a moving hotspot.
        decay = (
            self.rebalance_policy.decay
            if self.rebalance_policy is not None
            else RebalancePolicy().decay
        )
        self._column_load = [value * decay for value in self._column_load]
        self.rebalances += 1
        self._persist_bounds()

    def _persist_bounds(self) -> None:
        """Write the live boundaries next to the band journals.

        The workers journal the migration itself (an extract on the
        donor, a bootstrap on the receiver), but the *routing map* lives only in
        the coordinator — without it a recovered fleet would route new
        events by the original even split and break the homing
        invariant.  A tiny ``fleet.json`` under the journal root closes
        the gap; fleets without a journal skip it (nothing to recover).
        """
        if self.config.journal is None:
            return
        os.makedirs(self.config.journal.path, exist_ok=True)
        path = os.path.join(self.config.journal.path, "fleet.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"bounds": self._bounds(), "rebalances": self.rebalances}, fh
            )
        os.replace(tmp, path)

    def _load_bounds(self) -> Optional[Dict[str, object]]:
        if self.config.journal is None:
            return None
        path = os.path.join(self.config.journal.path, "fleet.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def system_stats(self, now: int) -> SystemStats:
        """Fleet-wide cost-model inputs: summed rate, summed corpus."""
        shard_stats = self._run_all("system_stats", now)
        return SystemStats(
            event_rate=sum(s.event_rate for s in shard_stats),
            total_events=sum(s.total_events for s in shard_stats),
        )

    # ------------------------------------------------------------------
    # Durability (DESIGN.md §13): per-band journals, fleet recovery
    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        """Snapshot every worker (each rotates its own band journal)."""
        self._run_all("snapshot")

    def recover(self) -> int:
        """Recover every worker from its band journal, then rebuild the
        coordinator's routing state from the recovered workers.

        The coordinator itself keeps no journal — everything it holds is
        derivable: homes are the shards holding a record, the owner is
        the shard of the last known location, the held region is the
        usual K-way intersection, and the global ``delivered`` set is the
        union of the workers' sets (exact, because each event lives in
        exactly one shard's corpus, so every client-visible delivery was
        recorded by precisely the worker that owns the event).  The
        coordinator-level sequence counter restarts at the delivered-set
        size — each historical stamp added one id, and a reconnecting
        client tracks ``max(seen, new)`` anyway, so a conservative
        restart cannot corrupt gap detection.  Returns the total number
        of tail records the workers applied.

        When the fleet rebalanced before the crash, the persisted
        ``fleet.json`` boundary map is restored *first*, so the routing
        the coordinator rebuilds (owners, homes) matches the column
        ownership the band journals replay into the workers.
        """
        fleet_meta = self._load_bounds()
        if fleet_meta is not None:
            self.specs = partition_columns(
                self.grid, [int(b) for b in fleet_meta["bounds"]]
            )
            self._shard_by_column = self._column_map(self.specs)
            self.rebalances = int(fleet_meta.get("rebalances", 0))
        applied = sum(self._run_all("recover"))
        self.subscribers = {}
        self._dirty = {}
        for shard_id, snapshots in enumerate(self._run_all("subscriber_snapshots")):
            for sub in snapshots:
                sub_id = sub.subscription.sub_id
                record = self.subscribers.get(sub_id)
                if record is None:
                    record = ShardedSubscriberRecord(
                        subscription=sub.subscription,
                        location=sub.location,
                        velocity=sub.velocity,
                        owner=self.shard_of_point(sub.location),
                    )
                    self.subscribers[sub_id] = record
                record.homes.add(shard_id)
                record.delivered |= sub.delivered
                if sub.safe is not None:
                    complement, codes = sub.safe
                    record.shard_regions[shard_id] = SafeRegion(self.grid, codes, complement)
        for record in self.subscribers.values():
            record.next_seq = len(record.delivered)
            self._recompute_held(record)
        return applied

    # ------------------------------------------------------------------
    # Aggregate views (shared surface with ElapsServer)
    # ------------------------------------------------------------------
    def merged_metrics(self) -> CommunicationStats:
        """Every worker's counters, field-wise, with the client's wire
        bytes and location reports as the coordinator counted them (a
        worker's own frames are fleet-internal)."""
        merged = self.metrics
        for stats in self._run_all("merged_metrics"):
            merged = merged.merged_with(stats)
        return merged.with_client_wire_of(self.metrics)

    def merged_registry(self) -> MetricsRegistry:
        """Coordinator registry plus every worker's (histograms
        bucket-wise, wire bytes and location reports the coordinator's as
        in :meth:`merged_metrics`), and the executor's pipe counters as
        gauges."""
        merged = self.registry
        for registry in self._run_all("merged_registry"):
            merged = merged.merged_with(registry)
        merged.stats = merged.stats.with_client_wire_of(self.metrics)
        merged.gauges.update(self.executor.gauges())
        return merged

    def configure_tracing(self, slow_threshold: Optional[float]) -> None:
        """Set the slow-span threshold of the coordinator and of every shard."""
        self.tracer.slow_threshold = slow_threshold
        self._run_all("configure_tracing", slow_threshold)

    def corpus_matches(self, expression) -> List[Event]:
        """Every live be-matching event, across all shards' corpora."""
        return [
            event
            for matched in self._run_all("corpus_matches", expression)
            for event in matched
        ]

    def delivered_ids(self, sub_id: int) -> FrozenSet[int]:
        """The coordinator's global delivered set for ``sub_id``."""
        return frozenset(self.subscribers[sub_id].delivered)

    def close(self) -> None:
        """Shut the executor down; it closes the servers it hosts (and
        with them the band journals)."""
        self.executor.close()

    def __enter__(self) -> "ShardedElapsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
