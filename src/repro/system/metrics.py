"""Communication and server-cost accounting.

The paper's headline metric is the average *communication I/O* per
subscriber, split into the two types of Section 3.3:

* **location-update rounds** — the subscriber leaves the safe region,
  reports its location, and receives a new safe region;
* **event-arrival rounds** — a new matching event lands in the impact
  region; the server pings the subscriber, receives the location, and
  answers with either a notification or a new safe region.

The secondary metrics cover Appendix B (bytes shipped per safe region,
raw vs compressed, and the wire bytes of every message, which every
server counts) and Appendix D.3 (server computation cost of safe-
region construction, plus the work counters of the matching machinery).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

from .protocol import message_bytes, notification_bytes, region_delta_for, region_push_for


@dataclass
class CommunicationStats:
    """Mutable accumulator; one per simulation run."""

    location_update_rounds: int = 0
    event_arrival_rounds: int = 0
    notifications: int = 0
    constructions: int = 0
    cells_examined: int = 0
    events_scanned: int = 0
    #: WAH-compressed and raw bytes of every shipped safe region
    #: (Appendix B)
    safe_region_bytes: int = 0
    raw_region_bytes: int = 0
    #: full wire-protocol bytes (frames included), split by direction:
    #: the length of every frame that crosses, or would cross, the network
    wire_bytes_up: int = 0
    wire_bytes_down: int = 0
    server_seconds: float = 0.0
    # ------------------------------------------------------------------
    # Publish-pipeline counters (publish_batch, of which a single publish
    # is a batch of one, and the index caches it drives).
    # ------------------------------------------------------------------
    #: publish_batch invocations
    batches: int = 0
    #: events that arrived inside a batch (so ``batch_events / batches``
    #: is the realised mean batch size)
    batch_events: int = 0
    #: per-leaf clause-cache and per-cell covering-cache hits during
    #: batched processing (each hit skips an inverted-list counting run
    #: or a complement-table scan)
    cache_hits: int = 0
    #: (attribute layer, value) probes the subscription matcher actually
    #: ran — memo misses: a layer probes a value once and keeps the
    #: result until a write touches the layer, so this divided by
    #: ``batch_events`` shows the probes an event still pays for
    match_batch_probes: int = 0
    #: (attribute layer, value) probe results taken from a layer's memo
    #: instead; ``hits / (hits + probes)`` is the memo hit share
    match_probe_memo_hits: int = 0
    #: (event, partition) pairs the attribute-bitmap prefilter skipped
    #: without probing
    partitions_pruned: int = 0
    # ------------------------------------------------------------------
    # Network-hardening counters (TCP layer only; the in-process
    # simulation never touches them).  These are the observable half of
    # the fault model in DESIGN.md §8: every hostile-network incident the
    # server absorbs is counted instead of crashing the event loop.
    # ------------------------------------------------------------------
    #: frames that failed to parse (bad type byte, length mismatch,
    #: corrupted payload); each one drops its connection
    malformed_frames: int = 0
    #: connections torn down by a peer reset (``ECONNRESET``) — distinct
    #: from clean EOF, which the server's read loop tells apart
    connection_resets: int = 0
    #: connections reaped because no frame arrived within the read timeout
    read_timeouts: int = 0
    #: connections reaped because a response could not be flushed within
    #: the write timeout (a stalled or unreachable peer); distinct from
    #: ``read_timeouts`` — a slow *reader* on the far end is a different
    #: incident than a silent sender, and conflating them hid real
    #: backpressure problems behind an idle-connection count
    write_timeouts: int = 0
    #: heartbeat frames received (and echoed) by the server
    heartbeats: int = 0
    #: SubscribeMessage arrivals for an already-known subscriber
    #: (a reconnecting client re-registering)
    resubscribes: int = 0
    #: ResyncMessage arrivals (client reconciling its delivered set)
    resyncs: int = 0
    #: notifications re-shipped during a resync because the client
    #: reported it never received them
    redeliveries: int = 0
    # ------------------------------------------------------------------
    # Backpressure counters (the queued connection front-end of
    # DESIGN.md §17; a server built before it, or an in-process
    # simulation, leaves them all at 0).
    # ------------------------------------------------------------------
    #: frames a subscriber's live connection could not be written
    #: (dying transport under the writer task); the loss is healed by
    #: the client's next resync — but it is no longer silent
    push_errors: int = 0
    #: stale frames dropped from over-cap send queues (region pushes,
    #: deltas, ephemeral echoes — never notifications)
    frames_shed: int = 0
    #: queued region pushes/deltas removed because a newer full
    #: SafeRegionPush for the same subscriber entered the queue
    superseded_region_ships: int = 0
    #: connections dropped because their send queue stayed over cap past
    #: the grace window (or hit the hard cap); healed by resync
    slow_consumer_disconnects: int = 0
    #: connections closed at accept time by ``max_connections``
    connections_refused: int = 0
    #: deepest any per-connection send queue ever got (frames); a gauge
    #: — merges take the max, not the sum
    send_queue_high_water: int = 0
    #: deepest the shared ingress queue ever got (frames); gauge, merged
    #: by max
    ingress_queue_high_water: int = 0
    # ------------------------------------------------------------------
    # Incremental-repair counters (the server's ``repair=True`` mode; the
    # always-rebuild configuration leaves them all at 0).  A repair carves
    # the new event's dilation out of the cached safe region instead of
    # re-running the construction strategy, and ships only the removed
    # cells to the client.
    # ------------------------------------------------------------------
    #: type-II hits resolved by carving the cached region (no construction)
    repairs: int = 0
    #: type-II hits where the repair budget forced a full reconstruction
    #: (region empty, too many cells carved away, or balance drift)
    repair_fallbacks: int = 0
    #: compressed bytes of the removed-cell bitmaps shipped as deltas
    delta_region_bytes: int = 0
    # ------------------------------------------------------------------
    # Location-update traffic: which share of the type-I work is the
    # cheap kind.
    # ------------------------------------------------------------------
    #: location updates whose corpus match was answered by the
    #: subscriber's retained matching field, without the event index
    #: (``repair=True`` only); a share of ``location_update_rounds`` (a
    #: fleet's shards each count their own answers to one report)
    corpus_matches_from_field: int = 0
    #: events un-dilated from a retained matching field — a delivery,
    #: expiry or extraction of an event the field knew, counted once per
    #: (event, field) pair (``repair=True`` only)
    field_exclusions: int = 0
    #: constructions that returned an empty safe region — the
    #: subscriber's own cell is unsafe and it reports every timestamp;
    #: a share of ``constructions``
    degenerate_constructions: int = 0
    #: non-degenerate constructions whose region reached the strategy's
    #: ``max_cells`` cap — the cap, not the balance ratio or an exhausted
    #: frontier, ended the expansion (a frontier that ran dry on the very
    #: cell that filled the cap counts here too); a share of
    #: ``constructions``
    capped_constructions: int = 0
    #: times a construction's array view of a matching field outgrew its
    #: band of grid rows and was projected again (the array core's own
    #: work: a scalar construction reads no view and counts none)
    view_regrowths: int = 0
    # ------------------------------------------------------------------
    # Durability counters (the journal of DESIGN.md §13; a server built
    # without ``ServerConfig.journal`` leaves them all at 0).
    # ------------------------------------------------------------------
    #: operation records appended to the journal
    journal_records: int = 0
    #: bytes appended to the journal (framing included)
    journal_bytes: int = 0
    #: snapshots written (each one rotates the journal)
    snapshots_taken: int = 0
    #: bytes written as snapshot images
    snapshot_bytes: int = 0
    #: journal-tail records applied by the last :meth:`recover` call
    recovered_records: int = 0
    #: re-publishes of an event id the corpus already held, dropped
    #: idempotently (producer retries, partial-fleet replays)
    duplicate_publishes: int = 0

    @property
    def total_rounds(self) -> int:
        """Both communication types combined."""
        return self.location_update_rounds + self.event_arrival_rounds

    def per_subscriber(self, subscriber_count: int) -> Dict[str, float]:
        """The per-subscriber averages the paper's figures report.

        Besides the paper's four headline series, the repair- and
        batch-era counters are included so a report built from this view
        alone still describes what the run actually did (a repair-mode
        run with ``repairs`` omitted looks identical to always-rebuild).
        """
        if subscriber_count <= 0:
            raise ValueError(f"subscriber count must be positive: {subscriber_count}")
        return {
            "location_update": self.location_update_rounds / subscriber_count,
            "event_arrival": self.event_arrival_rounds / subscriber_count,
            "total": self.total_rounds / subscriber_count,
            "notifications": self.notifications / subscriber_count,
            "repairs": self.repairs / subscriber_count,
            "batches": self.batches / subscriber_count,
        }

    def as_dict(self) -> Dict[str, float]:
        """Every counter by field name.

        The machine-readable form benchmarks and reports consume; new
        counters join automatically, so a report can never silently miss
        one (the regression the batch counters were added to prevent).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    #: gauge-like fields: a merge takes the max of the two sides (a
    #: fleet's high-water mark is its deepest queue, not their sum)
    MAX_MERGED = frozenset({"send_queue_high_water", "ingress_queue_high_water"})

    #: what a client's own wire carries, its frames' bytes, its location
    #: reports and the resyncs, resubscribes and redeliveries it asks
    #: for: a fleet counts them once, at its coordinator, because its
    #: shards' frames never reach a client (a report to, or a resync of,
    #: a subscriber homed on K shards is one, not K)
    CLIENT_WIRE = (
        "safe_region_bytes",
        "raw_region_bytes",
        "wire_bytes_up",
        "wire_bytes_down",
        "delta_region_bytes",
        "location_update_rounds",
        "resyncs",
        "resubscribes",
        "redeliveries",
    )

    def with_client_wire_of(self, other: "CommunicationStats") -> "CommunicationStats":
        """A copy whose :data:`CLIENT_WIRE` fields are ``other``'s."""
        return replace(self, **{name: getattr(other, name) for name in self.CLIENT_WIRE})

    def count_notifications(self, notifications) -> None:
        """Count the frames delivering ``notifications``.

        Every recipient's frame of one event is the same length, and a
        publish returns its notifications event by event: one encode per
        run, counted at the length of the frame that is sent.
        """
        event, size = None, 0
        for notification in notifications:
            if notification.event is not event:
                event = notification.event
                size = notification_bytes(event)
            self.wire_bytes_down += size

    def count_region_push(self, sub_id: int, region) -> None:
        """Count one full safe-region push to ``sub_id``."""
        push = region_push_for(sub_id, region)
        self.safe_region_bytes += push.bitmap.compressed_bytes()
        self.raw_region_bytes += push.bitmap.raw_bytes()
        self.wire_bytes_down += message_bytes(push)

    def count_region_delta(self, sub_id: int, grid, removed) -> None:
        """Count one repair's removed-cell delta to ``sub_id``."""
        delta = region_delta_for(sub_id, grid, removed)
        self.delta_region_bytes += delta.bitmap.compressed_bytes()
        self.wire_bytes_down += message_bytes(delta)

    def merged_with(self, other: "CommunicationStats") -> "CommunicationStats":
        """Field-wise sum with another accumulator (inputs untouched).

        Counters add; the high-water gauges in :data:`MAX_MERGED` take
        the max.
        """
        merged = CommunicationStats()
        for f in fields(CommunicationStats):
            if f.name in self.MAX_MERGED:
                setattr(
                    merged, f.name, max(getattr(self, f.name), getattr(other, f.name))
                )
            else:
                setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged
