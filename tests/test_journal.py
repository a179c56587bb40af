"""The durability journal: framing, torn tails, snapshots, idempotence.

These are the property tests behind DESIGN.md §13's recovery invariants:
a torn tail is silently truncated, a checksum mismatch on a *complete*
record is corruption (fail loudly), snapshots rotate the log, and
replaying any journal twice is a no-op.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from repro.core import IGM
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect, cells_of_codes, codes_of_cells
from repro.index import BEQTree
from repro.system import ElapsServer, SerialExecutor, ServerConfig
from repro.system.journal import (
    OPERATIONS,
    Journal,
    JournalCorruptionError,
    JournalRecord,
    JournalSpec,
    ServerSnapshot,
    SubscriberSnapshot,
    _encode_record,
    decode_snapshot,
    encode_snapshot,
    read_records,
)
from repro.testing import TraceRecorder, replay_trace

SPACE = Rect(0, 0, 10_000, 10_000)


def make_sub(sub_id=1, radius=1500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def sale_event(event_id, x, y, ttl=None, arrived=0, **extra):
    return Event(
        event_id, {"topic": "sale", **extra}, Point(x, y),
        arrived_at=arrived, expires_at=ttl,
    )


def make_server(path=None, snapshot_every=0, **config_fields):
    journal = None
    if path is not None:
        journal = JournalSpec(str(path), snapshot_every=snapshot_every)
    config_fields.setdefault("initial_rate", 1.0)
    return ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=600),
        ServerConfig(journal=journal, **config_fields),
        event_index=BEQTree(SPACE, emax=32),
    )


def all_commands():
    """One ``(method, args)`` command per journaled operation, with
    every argument exercised."""
    return [
        ("bootstrap", ((
            sale_event(1, 100, 100), sale_event(2, 200, 200, ttl=50, rank=3),
        ),)),
        ("subscribe", (make_sub(7), Point(5000.5, 5001.25), Point(-3.5, 4.0), 1)),
        ("report_location", (7, Point(5100.0, 5000.0), Point(0.0, 0.0), 2)),
        ("resync", (7, Point(5200.0, 5000.0), Point(1.0, 1.0), (1, 2, 9), 3)),
        ("publish", (sale_event(3, 300, 300), 4)),
        ("publish_batch", ((
            sale_event(4, 400, 400), sale_event(5, 500, 500, note="x"),
        ), 5)),
        ("expire_due_events", (6,)),
        ("extract_events_in_columns", (((0, 3), (17, 20)),)),
        ("unsubscribe", (7,)),
    ]


def expire(now):
    """The smallest record there is: one expiry sweep at ``now``."""
    return JournalRecord(0, "expire_due_events", (now,))


class TestRecordRoundTrip:
    def test_every_kind_survives_a_disk_round_trip(self, tmp_path):
        commands = all_commands()
        assert {method for method, _ in commands} == set(OPERATIONS)
        journal = Journal(str(tmp_path))
        for method, args in commands:
            assert journal.append(JournalRecord(0, method, args)) > 0
        journal.close()

        decoded = list(read_records(str(tmp_path)))
        assert [r.seq for r in decoded] == list(range(1, len(commands) + 1))
        # the decoded record is the command that was appended: same
        # method, equal arguments, nothing else on it
        assert [(r.method, r.args) for r in decoded] == commands

    def test_sequence_numbering_continues_across_reopen(self, tmp_path):
        with Journal(str(tmp_path)) as journal:
            journal.append(expire(1))
            journal.append(expire(2))
        with Journal(str(tmp_path)) as journal:
            assert journal.seq == 2
            journal.append(expire(3))
            assert journal.seq == 3
        seqs = [r.seq for r in read_records(str(tmp_path))]
        assert seqs == [1, 2, 3]

    def test_read_records_skips_already_applied_prefix(self, tmp_path):
        with Journal(str(tmp_path)) as journal:
            for now in range(5):
                journal.append(expire(now))
        assert [r.args for r in read_records(str(tmp_path), after_seq=3)] == [
            (3,), (4,),
        ]


class TestTornTail:
    def _journal_with_records(self, tmp_path, count=4):
        journal = Journal(str(tmp_path))
        for now in range(count):
            journal.append(
                JournalRecord(0, "publish", (sale_event(now + 1, 100, 100), now))
            )
        journal.close()
        return os.path.join(str(tmp_path), "journal.log")

    def test_torn_tail_is_truncated_silently(self, tmp_path):
        log_path = self._journal_with_records(tmp_path)
        size = os.path.getsize(log_path)
        with open(log_path, "r+b") as handle:
            handle.truncate(size - 7)  # rip through the final record

        journal = Journal(str(tmp_path))
        assert journal.torn_tail_truncated
        assert journal.record_count == 3
        assert journal.seq == 3
        # the truncated log is healed: a fresh append continues cleanly
        journal.append(expire(99))
        journal.close()
        records = list(read_records(str(tmp_path)))
        assert [r.seq for r in records] == [1, 2, 3, 4]
        assert records[-1].method == "expire_due_events"

    def test_torn_header_is_also_a_torn_tail(self, tmp_path):
        log_path = self._journal_with_records(tmp_path, count=2)
        with open(log_path, "ab") as handle:
            handle.write(b"\x00\x00\x00")  # 3 of 8 header bytes
        journal = Journal(str(tmp_path))
        assert journal.torn_tail_truncated
        assert journal.record_count == 2
        journal.close()

    def test_corrupted_complete_record_raises(self, tmp_path):
        log_path = self._journal_with_records(tmp_path)
        with open(log_path, "r+b") as handle:
            handle.seek(20)  # inside the first record's payload
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(JournalCorruptionError):
            Journal(str(tmp_path))
        with pytest.raises(JournalCorruptionError):
            list(read_records(str(tmp_path)))


class TestSnapshots:
    def _snapshot(self):
        return ServerSnapshot(
            last_seq=41,
            started_at=3,
            arrival_times=[1, 2, 2, 3],
            events=[sale_event(1, 100, 100), sale_event(2, 200, 200, ttl=9)],
            subscribers=[
                SubscriberSnapshot(
                    subscription=make_sub(7),
                    location=Point(5000.0, 5000.0),
                    velocity=Point(1.0, -1.0),
                    delivered=frozenset({1, 2}),
                    next_seq=2,
                    safe=(False, codes_of_cells([(1, 2), (3, 4)])),
                    impact=(True, codes_of_cells([(0, 0)])),
                ),
                SubscriberSnapshot(
                    subscription=make_sub(9, radius=800.0),
                    location=Point(100.0, 100.0),
                    velocity=Point(0.0, 0.0),
                    delivered=frozenset(),
                    safe=None,
                    impact=None,
                ),
            ],
            counters={"location_update_messages": 5, "bytes_measured": True},
        )

    def test_snapshot_codec_round_trip(self):
        snapshot = self._snapshot()
        decoded = decode_snapshot(encode_snapshot(snapshot))
        assert decoded.last_seq == 41
        assert decoded.started_at == 3
        assert decoded.arrival_times == [1, 2, 2, 3]
        assert [e.event_id for e in decoded.events] == [1, 2]
        assert decoded.events[1].expires_at == 9
        first, second = decoded.subscribers
        assert first.subscription == make_sub(7)
        assert first.delivered == frozenset({1, 2})
        assert first.next_seq == 2
        complement, codes = first.safe
        assert not complement and cells_of_codes(codes) == [(1, 2), (3, 4)]
        complement, codes = first.impact
        assert complement and cells_of_codes(codes) == [(0, 0)]
        assert second.safe is None and second.impact is None
        # bytes_measured travelled through the int-only scalar codec
        assert decoded.counters["bytes_measured"] == 1
        assert decoded.counters["location_update_messages"] == 5

    def test_write_snapshot_rotates_the_log(self, tmp_path):
        journal = Journal(str(tmp_path))
        for now in range(3):
            journal.append(expire(now))
        journal.write_snapshot(encode_snapshot(self._snapshot()), seq=journal.seq)
        assert journal.record_count == 0
        assert os.path.getsize(os.path.join(str(tmp_path), "journal.log")) == 0
        seq, body = journal.read_snapshot()
        assert seq == 3
        assert decode_snapshot(body).last_seq == 41
        # appends after rotation continue the numbering past the snapshot
        journal.append(expire(9))
        assert journal.seq == 4
        journal.close()
        # a reopened journal resumes from max(snapshot seq, log tail)
        with Journal(str(tmp_path)) as reopened:
            assert reopened.seq == 4

    def test_snapshot_corruption_raises(self, tmp_path):
        journal = Journal(str(tmp_path))
        journal.write_snapshot(encode_snapshot(self._snapshot()), seq=1)
        journal.close()
        snapshot_path = os.path.join(str(tmp_path), "snapshot.bin")
        with open(snapshot_path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[-1] ^= 0xFF
        with open(snapshot_path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(JournalCorruptionError):
            Journal(str(tmp_path)).read_snapshot()

    def test_snapshot_bad_magic_raises(self, tmp_path):
        journal = Journal(str(tmp_path))
        journal.close()
        with open(os.path.join(str(tmp_path), "snapshot.bin"), "wb") as handle:
            handle.write(b"NOTASNAP" + struct.pack(">IQI", 1, 0, 0))
        with pytest.raises(JournalCorruptionError):
            Journal(str(tmp_path)).read_snapshot()


class TestSpec:
    def test_negative_snapshot_cadence_is_rejected(self):
        with pytest.raises(ValueError):
            JournalSpec("/tmp/x", snapshot_every=-1)

    def test_for_shard_derives_band_subdirectories(self, tmp_path):
        spec = JournalSpec(str(tmp_path), snapshot_every=64, fsync=False)
        band = spec.for_shard(2)
        assert band.path == os.path.join(str(tmp_path), "band-2")
        assert band.snapshot_every == 64

    def test_meta_sidecar_round_trip(self, tmp_path):
        journal = Journal(str(tmp_path))
        assert journal.read_meta() == {}
        journal.write_meta({"grid_n": 40, "dataset": "twitter"})
        journal.close()
        with Journal(str(tmp_path)) as reopened:
            assert reopened.read_meta() == {"grid_n": 40, "dataset": "twitter"}


class TestServerRecovery:
    def _drive(self, server):
        """A tiny deterministic workload touching every journaled op."""
        server.bootstrap([sale_event(1, 5100, 5000), sale_event(2, 9000, 9000)])
        server.subscribe(make_sub(7), Point(5000, 5000), Point(20, 0), now=0)
        server.subscribe(make_sub(8), Point(8900, 9000), Point(0, 0), now=0)
        server.publish(sale_event(10, 5050, 5000), now=1)
        server.publish_batch(
            [sale_event(11, 5200, 5000), sale_event(12, 700, 700)], now=2
        )
        server.report_location(7, Point(5100.0, 5000.0), Point(20.0, 0.0), now=3)
        server.resync(8, Point(8900.0, 9000.0), Point(0.0, 0.0), [2], now=4)
        server.unsubscribe(8)
        server.expire_due_events(5)

    def _state(self, server):
        return {
            "subs": sorted(server.subscribers),
            "corpus": sorted(e.event_id for e in server.corpus_matches(
                make_sub(7).expression)),
            "delivered": sorted(server.delivered_ids(7)),
            "next_seq": server.subscribers[7].next_seq,
        }

    def test_recover_rebuilds_state_and_is_idempotent(self, tmp_path):
        original = make_server(tmp_path)
        self._drive(original)
        want = self._state(original)
        original.close()

        revived = make_server(tmp_path)
        assert revived.subscribers == {}  # fresh process: nothing applied yet
        replayed = revived.recover()
        assert replayed > 0
        assert self._state(revived) == want
        # replaying the same journal again is a no-op by construction
        assert revived.recover() == 0
        assert self._state(revived) == want
        revived.close()

    def test_recovery_from_snapshot_plus_tail(self, tmp_path):
        original = make_server(tmp_path)
        self._drive(original)
        original.snapshot()
        # post-snapshot tail
        original.publish(sale_event(20, 5150, 5000), now=6)
        want = self._state(original)
        snapshot_seq = original.journal.seq - 1
        original.close()

        revived = make_server(tmp_path)
        replayed = revived.recover()
        assert replayed == 1  # only the tail record; the rest came from the image
        assert revived.applied_seq == snapshot_seq + 1
        assert self._state(revived) == want
        revived.close()

    def test_automatic_snapshot_cadence(self, tmp_path):
        server = make_server(tmp_path, snapshot_every=5)
        self._drive(server)
        assert server.metrics.snapshots_taken >= 1
        assert os.path.exists(os.path.join(str(tmp_path), "snapshot.bin"))
        # the rotated log holds fewer records than were journaled
        assert server.journal.record_count < server.metrics.journal_records
        want = self._state(server)
        server.close()

        revived = make_server(tmp_path, snapshot_every=5)
        revived.recover()
        assert self._state(revived) == want
        revived.close()

    @pytest.mark.parametrize("method", ["publish", "publish_batch"],
                             ids=["legacy_publish", "publish_batch"])
    def test_hand_appended_publish_records_recover(self, tmp_path, method):
        """A journal written before ``publish`` became a batch of one —
        or a recorded trace — holds single-event ``publish`` records; no
        server writes them, but ``recover()`` must replay them exactly
        like the one-event ``publish_batch`` records a server writes."""
        events = [
            sale_event(10, 5050, 5000),   # in radius of 7
            sale_event(11, 5200, 5000),   # in radius of 7
            sale_event(12, 700, 700),     # nobody's
            sale_event(13, 8950, 9000),   # in radius of 8
        ]
        # the reference: a live server publishing one event at a time
        live = make_server(tmp_path / "live")
        live.subscribe(make_sub(7), Point(5000, 5000), Point(0, 0), now=0)
        live.subscribe(make_sub(8), Point(8900, 9000), Point(0, 0), now=0)
        for now, event in enumerate(events, start=1):
            live.publish(event, now)
        assert [r.method for r in live.journal.records()][2:] == (
            ["publish_batch"] * len(events)
        )
        want = {sub_id: live.delivered_ids(sub_id) for sub_id in (7, 8)}
        assert want == {7: {10, 11}, 8: {13}}
        live.close()

        seeded = make_server(tmp_path / "old")
        seeded.subscribe(make_sub(7), Point(5000, 5000), Point(0, 0), now=0)
        seeded.subscribe(make_sub(8), Point(8900, 9000), Point(0, 0), now=0)
        seeded.close()
        journal = Journal(str(tmp_path / "old"))
        for now, event in enumerate(events, start=1):
            arrived = event if method == "publish" else (event,)
            journal.append(JournalRecord(0, method, (arrived, now)))
        journal.close()

        revived = make_server(tmp_path / "old")
        assert revived.recover() == 2 + len(events)
        assert {s: revived.delivered_ids(s) for s in (7, 8)} == want
        assert sorted(e.event_id for e in revived.corpus_matches(
            make_sub(7).expression)) == [10, 11, 12, 13]
        revived.close()

    def test_recovered_delivery_is_deduplicated(self, tmp_path):
        """The client-visible exactly-once core: after recovery the server
        still knows what each subscriber has received."""
        original = make_server(tmp_path)
        original.bootstrap([])
        original.subscribe(make_sub(7), Point(5000, 5000), Point(0, 0), now=0)
        original.publish(sale_event(10, 5050, 5000), now=1)
        original.close()

        revived = make_server(tmp_path)
        revived.recover()
        # a resync with the delivered id must not re-send event 10
        notifications, _ = revived.resync(
            7, Point(5000.0, 5000.0), Point(0.0, 0.0), [10], now=2
        )
        assert [n.event.event_id for n in notifications] == []
        # ...but a resync claiming nothing received re-sends it exactly once
        notifications, _ = revived.resync(
            7, Point(5000.0, 5000.0), Point(0.0, 0.0), [], now=3
        )
        assert [n.event.event_id for n in notifications] == [10]
        revived.close()


    def test_a_refused_bootstrap_journals_nothing(self, tmp_path):
        """A bootstrap the event index refuses (an event outside the space,
        an id repeated within the load) raises before its record is
        appended, so the journal still recovers and later records replay."""
        server = make_server(tmp_path)
        server.bootstrap([sale_event(1, 5100, 5000)])
        with pytest.raises(ValueError):
            server.bootstrap([sale_event(2, 200, 200), sale_event(3, -5, 10)])
        with pytest.raises(ValueError):
            server.bootstrap([sale_event(4, 300, 300), sale_event(4, 400, 400)])
        assert sorted(server._events_by_id) == [1]  # and nothing was stored
        server.subscribe(make_sub(7), Point(5000, 5000), Point(0, 0), now=0)
        server.publish(sale_event(10, 5050, 5000), now=1)
        assert [r.method for r in server.journal.records()] == [
            "bootstrap", "subscribe", "publish_batch",
        ]
        server.close()

        revived = make_server(tmp_path)
        assert revived.recover() == 3
        assert sorted(revived._events_by_id) == [1, 10]
        assert revived.delivered_ids(7) == {1, 10}
        revived.close()

    def test_duplicate_publishes_are_counted_dropped_and_replayed(self, tmp_path):
        """At-least-once producers and partial-fleet replays re-send
        events the corpus already holds: each one bumps
        ``duplicate_publishes``, none is stored or delivered twice, and
        a journal holding the duplicate records replays to the same
        delivered sets."""
        corpus = [sale_event(1, 5100, 5000), sale_event(2, 9000, 9000)]
        batch = [sale_event(10, 5050, 5000), sale_event(11, 5200, 5000)]
        server = make_server(tmp_path)
        server.bootstrap(corpus)
        server.subscribe(make_sub(7), Point(5000, 5000), Point(0, 0), now=0)
        first = server.publish_batch(batch, 1)
        assert sorted(n.event.event_id for n in first) == [10, 11]
        assert server.metrics.duplicate_publishes == 0
        held = len(server.event_index)
        want = (server.delivered_ids(7), server.subscribers[7].next_seq)
        assert want == ({1, 10, 11}, 3)

        assert server.publish_batch(batch, 2) == []
        assert server.metrics.duplicate_publishes == 2
        server.bootstrap(corpus)
        assert server.metrics.duplicate_publishes == 4
        # a batch that is part duplicate delivers only its fresh part
        late = server.publish_batch([batch[0], sale_event(12, 5000, 5100)], 3)
        assert [n.event.event_id for n in late] == [12]
        assert server.metrics.duplicate_publishes == 5
        assert len(server.event_index) == held + 1
        want = (want[0] | {12}, want[1] + 1)
        assert (server.delivered_ids(7), server.subscribers[7].next_seq) == want
        assert [r.method for r in server.journal.records()] == [
            "bootstrap", "subscribe", "publish_batch", "publish_batch",
            "bootstrap", "publish_batch",
        ]
        server.close()

        revived = make_server(tmp_path)
        assert revived.recover() == 6
        assert (revived.delivered_ids(7), revived.subscribers[7].next_seq) == want
        assert len(revived.event_index) == held + 1
        assert revived.metrics.duplicate_publishes == 5
        revived.close()


class TestStrictBodies:
    """A complete, CRC-clean body that does not decode to exactly its
    length is corruption — only the framing decides a torn tail."""

    @pytest.mark.parametrize("damage", [
        lambda body: body + b"\x00",               # a byte after the last field
        lambda body: body[:-1],                     # short
        lambda body: body[:-9] + b"\x07" + body[-8:],  # "sale"'s scalar tag
        lambda body: body[:-4] + b"\xff" * 4,       # "sale" as bad UTF-8
    ], ids=["trailing", "short", "scalar_tag", "utf8"])
    def test_a_checksummed_record_that_does_not_decode_raises(self, tmp_path, damage):
        body = damage(_encode_record(1, "publish", (sale_event(1, 100, 100), 0)))
        (tmp_path / "journal.log").write_bytes(
            struct.pack(">II", len(body), zlib.crc32(body)) + body
        )
        with Journal(str(tmp_path)) as journal:
            assert not journal.torn_tail_truncated
            with pytest.raises(JournalCorruptionError):
                list(journal.records())

    def test_a_checksummed_snapshot_that_does_not_decode_raises(self, tmp_path):
        body = encode_snapshot(TestSnapshots()._snapshot())
        with Journal(str(tmp_path)) as journal:
            journal.write_snapshot(body + b"\x00\x00\x00", seq=1)
        server = make_server(tmp_path)
        with pytest.raises(JournalCorruptionError):
            server.recover()
        server.close()


class TestBooleanOperands:
    def test_a_journaled_server_takes_what_a_plain_one_does(self, tmp_path):
        """A bool operand is the int 0/1 in the journal, as it is on the
        wire, so ``Predicate("flag", EQ, True)`` subscribes, delivers and
        recovers on a journaled server exactly as on a plain one."""
        flagged = Subscription(
            1, BooleanExpression([Predicate("flag", Operator.EQ, True)]), radius=1500.0
        )
        events = [
            Event(2, {"flag": 1}, Point(5050, 5000)),
            Event(3, {"flag": False}, Point(5050, 5000)),
            Event(4, {"flag": True}, Point(5000, 5050)),
        ]
        delivered = []
        for server in (make_server(), make_server(tmp_path)):
            server.subscribe(flagged, Point(5000, 5000), Point(0, 0), now=0)
            for now, event in enumerate(events, start=1):
                server.publish(event, now)
            delivered.append(server.delivered_ids(1))
        assert delivered == [{2, 4}, {2, 4}]
        server.close()

        revived = make_server(tmp_path)
        assert revived.recover() == 1 + len(events)
        assert revived.subscribers[1].subscription == flagged
        assert revived.delivered_ids(1) == {2, 4}
        notified = revived.publish(Event(5, {"flag": True}, Point(5000, 5000)), 9)
        assert [n.event.event_id for n in notified] == [5]
        revived.close()


# ----------------------------------------------------------------------
# The frozen on-disk format
# ----------------------------------------------------------------------
FIXTURE = Path(__file__).parent / "golden" / "journal_v1"
# what the commit that wrote the fixture measured over it
FIXTURE_RECOVER_DIGEST = (
    "9dda09a166611b2c854be79978de1b8dbd758cdcc30c0cbf119446cdcde71280"
)
FIXTURE_REPLAY_DIGEST = (
    "74da3375dbc0105c739275cc6befc8101fdfda9e8cf65c1227d9337998545a73"
)


def fixture_server(path=None, transport=None):
    journal = JournalSpec(str(path)) if path is not None else None
    return ElapsServer(
        Grid(20, SPACE), IGM(max_cells=40),
        ServerConfig(initial_rate=1.0, journal=journal),
        event_index=BEQTree(SPACE, emax=32), transport=transport,
    )


#: the snapshot prefix (state the tail never refers to) …
FIXTURE_PREFIX = [
    ("bootstrap", ((sale_event(1, 1000, 1000),),)),
    ("subscribe", (make_sub(5, 800.0), Point(1200.0, 1000.0), Point(0.0, 0.0), 0)),
]
#: … and the journal tail, seq 3–12: all nine kinds
FIXTURE_TAIL = [
    ("bootstrap", ((
        sale_event(2, 5100, 5000),
        Event(3, {"zeta": 1, "topic": "sale", "alpha": 2.5, "mid": "x"},
              Point(9000.0, 9000.0), arrived_at=0, expires_at=4),
    ),)),
    ("subscribe", (make_sub(7), Point(5000.5, 5001.25), Point(-3.5, 4.0), 1)),
    ("subscribe", (make_sub(8), Point(8900.0, 9000.0), Point(0.0, 0.0), 1)),
    ("report_location", (7, Point(5100.0, 5000.0), Point(20.0, 0.0), 2)),
    ("resync", (8, Point(8900.0, 9000.0), Point(1.0, 1.0), (3, 99), 3)),
    ("publish_batch", ((
        sale_event(11, 5200, 5000, arrived=4),
        sale_event(12, 700, 700, ttl=9, arrived=4, rank=3),
    ), 4)),
    ("expire_due_events", (5,)),
    ("extract_events_in_columns", (((0, 2), (17, 19)),)),
    ("unsubscribe", (8,)),
    # no server writes this kind; the fixture's author hand-appended it
    ("publish", (sale_event(13, 5050, 5000, arrived=6), 6)),
]


def state_digest(server):
    lines = [
        f"sub={sub_id} delivered={sorted(record.delivered)} "
        f"next_seq={record.next_seq} at={record.location.x},{record.location.y}"
        for sub_id, record in sorted(server.subscribers.items())
    ]
    lines.append("corpus=" + ",".join(str(i) for i in sorted(server._events_by_id)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestFrozenFormat:
    """``tests/golden/journal_v1`` was written by the commit before the
    journal record became ``(method, args)``; it is never regenerated.
    Whatever the codec looks like, these bytes must keep their meaning
    and today's writers must still produce them."""

    def test_fixture_decodes_to_the_expected_commands(self):
        decoded = list(read_records(str(FIXTURE)))
        assert [r.seq for r in decoded] == list(range(3, 13))
        assert [(r.method, r.args) for r in decoded] == FIXTURE_TAIL
        assert {r.method for r in decoded} == set(OPERATIONS)
        # attribute order is part of the format (dict equality is blind to it)
        unsorted_event = decoded[0].args[0][1]
        assert list(unsorted_event.attributes) == ["zeta", "topic", "alpha", "mid"]

    def test_reappending_the_commands_reproduces_the_bytes(self, tmp_path):
        shutil.copy(FIXTURE / "snapshot.bin", tmp_path)  # numbering resumes at 3
        with Journal(str(tmp_path)) as journal:
            for method, args in FIXTURE_TAIL:
                journal.append(JournalRecord(0, method, args))
            _, body = journal.read_snapshot()
        assert (tmp_path / "journal.log").read_bytes() == (
            FIXTURE / "journal.log"
        ).read_bytes()
        assert encode_snapshot(decode_snapshot(body)) == body

    def test_a_live_server_writes_the_same_bytes(self, tmp_path):
        server = fixture_server(tmp_path)
        for method, args in FIXTURE_PREFIX:
            getattr(server, method)(*args)
        server.snapshot()
        for method, args in FIXTURE_TAIL[:-1]:
            getattr(server, method)(*args)
        server.close()
        with Journal(str(tmp_path)) as journal:
            journal.append(JournalRecord(0, *FIXTURE_TAIL[-1]))
        assert (tmp_path / "journal.log").read_bytes() == (
            FIXTURE / "journal.log"
        ).read_bytes()

    def test_recover_and_replay_reach_the_recorded_digests(self, tmp_path):
        scratch = tmp_path / "journal_v1"
        shutil.copytree(FIXTURE, scratch)  # recover() opens the log for append
        revived = fixture_server(scratch)
        assert revived.recover() == len(FIXTURE_TAIL)
        assert revived.applied_seq == 12
        assert state_digest(revived) == FIXTURE_RECOVER_DIGEST
        # the snapshot carries the bytes_measured flag of older builds;
        # recovery skips a counter that has no field
        _, body = revived.journal.read_snapshot()
        assert "bytes_measured" in decode_snapshot(body).counters
        assert "bytes_measured" not in revived.metrics.as_dict()
        revived.close()
        replayed = replay_trace(str(FIXTURE), fixture_server())
        assert replayed.records_applied == len(FIXTURE_TAIL)
        assert replayed.digest() == FIXTURE_REPLAY_DIGEST

    def test_a_recorded_trace_is_a_list_of_shard_commands(self, tmp_path):
        """A trace record and a shard command are the same value: what
        :class:`TraceRecorder` logged goes through ``executor.run``
        untouched and rebuilds the recorded server's state."""
        recorder = TraceRecorder(fixture_server(), str(tmp_path))
        for method, args in FIXTURE_PREFIX + FIXTURE_TAIL[:-1]:
            getattr(recorder, method)(*args)
        recorder.publish(sale_event(13, 5050, 5000, arrived=6), now=6)
        want = state_digest(recorder.server)
        recorder.close()

        executor = SerialExecutor()
        executor.launch(
            [lambda transport: fixture_server(transport=transport)],
            grid=Grid(20, SPACE),
            locate=lambda sub_id: None,
        )
        for record in read_records(str(tmp_path)):
            reply = executor.run({0: (record.method, record.args)})[0]
            assert reply[0] == "done", reply
        assert state_digest(executor.shard_servers[0]) == want
        executor.close()
