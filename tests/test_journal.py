"""The durability journal: framing, torn tails, snapshots, idempotence.

These are the property tests behind DESIGN.md §13's recovery invariants:
a torn tail is silently truncated, a checksum mismatch on a *complete*
record is corruption (fail loudly), snapshots rotate the log, and
replaying any journal twice is a no-op.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.core import IGM
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import ElapsServer, ServerConfig
from repro.system.journal import (
    BOOTSTRAP,
    EXPIRE,
    LOCATION,
    PUBLISH,
    PUBLISH_BATCH,
    RESYNC,
    SUBSCRIBE,
    UNSUBSCRIBE,
    Journal,
    JournalCorruptionError,
    JournalRecord,
    JournalSpec,
    ServerSnapshot,
    SubscriberSnapshot,
    decode_snapshot,
    encode_snapshot,
    read_records,
)

SPACE = Rect(0, 0, 10_000, 10_000)


def make_sub(sub_id=1, radius=1500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def sale_event(event_id, x, y, ttl=None, **extra):
    return Event(
        event_id, {"topic": "sale", **extra}, Point(x, y),
        arrived_at=0, expires_at=ttl,
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


def all_kind_records():
    """One record of every kind, with every optional field exercised."""
    return [
        JournalRecord(BOOTSTRAP, 0, events=(
            sale_event(1, 100, 100), sale_event(2, 200, 200, ttl=50, rank=3),
        )),
        JournalRecord(
            SUBSCRIBE, 0, now=1, sub_id=7, subscription=make_sub(7),
            location=Point(5000.5, 5001.25), velocity=Point(-3.5, 4.0),
        ),
        JournalRecord(
            LOCATION, 0, now=2, sub_id=7,
            location=Point(5100.0, 5000.0), velocity=Point(0.0, 0.0),
        ),
        JournalRecord(
            RESYNC, 0, now=3, sub_id=7, location=Point(5200.0, 5000.0),
            velocity=Point(1.0, 1.0), received=(1, 2, 9),
        ),
        JournalRecord(PUBLISH, 0, now=4, events=(sale_event(3, 300, 300),)),
        JournalRecord(PUBLISH_BATCH, 0, now=5, events=(
            sale_event(4, 400, 400), sale_event(5, 500, 500, note="x"),
        )),
        JournalRecord(EXPIRE, 0, now=6),
        JournalRecord(UNSUBSCRIBE, 0, sub_id=7),
    ]


class TestRecordRoundTrip:
    def test_every_kind_survives_a_disk_round_trip(self, tmp_path):
        journal = Journal(str(tmp_path))
        originals = all_kind_records()
        for record in originals:
            assert journal.append(record) > 0
        journal.close()

        decoded = list(read_records(str(tmp_path)))
        assert [r.kind for r in decoded] == [r.kind for r in originals]
        assert [r.seq for r in decoded] == list(range(1, len(originals) + 1))
        for got, want in zip(decoded, originals):
            assert got.now == want.now
            assert got.sub_id == (want.sub_id if want.kind != SUBSCRIBE
                                  else want.subscription.sub_id)
            assert got.received == want.received
            assert got.location == want.location
            assert got.velocity == want.velocity
            assert len(got.events) == len(want.events)
            for ge, we in zip(got.events, want.events):
                assert ge.event_id == we.event_id
                assert dict(ge.attributes) == dict(we.attributes)
                assert ge.location == we.location
                assert ge.arrived_at == we.arrived_at
                assert ge.expires_at == we.expires_at
        sub = decoded[1]
        assert sub.subscription == make_sub(7)

    def test_sequence_numbering_continues_across_reopen(self, tmp_path):
        with Journal(str(tmp_path)) as journal:
            journal.append(JournalRecord(EXPIRE, 0, now=1))
            journal.append(JournalRecord(EXPIRE, 0, now=2))
        with Journal(str(tmp_path)) as journal:
            assert journal.seq == 2
            journal.append(JournalRecord(EXPIRE, 0, now=3))
            assert journal.seq == 3
        seqs = [r.seq for r in read_records(str(tmp_path))]
        assert seqs == [1, 2, 3]

    def test_read_records_skips_already_applied_prefix(self, tmp_path):
        with Journal(str(tmp_path)) as journal:
            for now in range(5):
                journal.append(JournalRecord(EXPIRE, 0, now=now))
        assert [r.now for r in read_records(str(tmp_path), after_seq=3)] == [3, 4]


class TestTornTail:
    def _journal_with_records(self, tmp_path, count=4):
        journal = Journal(str(tmp_path))
        for now in range(count):
            journal.append(JournalRecord(PUBLISH, 0, now=now,
                                         events=(sale_event(now + 1, 100, 100),)))
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
        journal.append(JournalRecord(EXPIRE, 0, now=99))
        journal.close()
        records = list(read_records(str(tmp_path)))
        assert [r.seq for r in records] == [1, 2, 3, 4]
        assert records[-1].kind == EXPIRE

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
                    safe=(False, frozenset({(1, 2), (3, 4)})),
                    impact=(True, frozenset({(0, 0)})),
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
        assert first.safe == (False, frozenset({(1, 2), (3, 4)}))
        assert first.impact == (True, frozenset({(0, 0)}))
        assert second.safe is None and second.impact is None
        # bytes_measured travelled through the int-only scalar codec
        assert decoded.counters["bytes_measured"] == 1
        assert decoded.counters["location_update_messages"] == 5

    def test_write_snapshot_rotates_the_log(self, tmp_path):
        journal = Journal(str(tmp_path))
        for now in range(3):
            journal.append(JournalRecord(EXPIRE, 0, now=now))
        journal.write_snapshot(encode_snapshot(self._snapshot()), seq=journal.seq)
        assert journal.record_count == 0
        assert os.path.getsize(os.path.join(str(tmp_path), "journal.log")) == 0
        seq, body = journal.read_snapshot()
        assert seq == 3
        assert decode_snapshot(body).last_seq == 41
        # appends after rotation continue the numbering past the snapshot
        journal.append(JournalRecord(EXPIRE, 0, now=9))
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
        blob = bytearray(open(snapshot_path, "rb").read())
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
        assert Journal(str(tmp_path)).read_meta() == {
            "grid_n": 40, "dataset": "twitter",
        }


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

    @pytest.mark.parametrize("kind", [PUBLISH, PUBLISH_BATCH],
                             ids=["legacy_publish", "publish_batch"])
    def test_hand_appended_publish_records_recover(self, tmp_path, kind):
        """A journal written before ``publish`` became a batch of one
        holds single-event PUBLISH records; nothing writes them any more,
        but ``recover()`` must replay them exactly like the one-event
        PUBLISH_BATCH records a server writes today."""
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
        assert [r.kind for r in live.journal.records()][2:] == (
            [PUBLISH_BATCH] * len(events)
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
            journal.append(JournalRecord(kind, 0, now=now, events=(event,)))
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
