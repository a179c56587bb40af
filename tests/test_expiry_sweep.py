"""Event retirement (expiry sweeps, band extraction) un-dilates each
retired event from exactly the retained matching fields that know it,
one call per such field.

The contract is that targeting and batching change nothing observable:
every field's known events — hence its unsafe cells, φ and array views —
every ``field_exclusions`` count and every notification match what one
``note_exclusion`` call per (event, live field) pair produces.  The
reference below *is* that broadcast loop, patched in for the second run
of each differential.
"""

from __future__ import annotations

import random

import pytest

from repro.core import IGM
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import (
    CallbackTransport,
    ElapsServer,
    SerialExecutor,
    ServerConfig,
    ShardedElapsServer,
)
from repro.testing import definition1_violations, impact_coverage_violations

SPACE = Rect(0, 0, 10_000, 10_000)
TOPICS = ("sale", "show")


def lazy_fields(server):
    """The retained matching fields, by ``sub_id`` (subscribe order)."""
    return {
        sub_id: record.lazy_field
        for sub_id, record in server.subscribers.items()
        if record.lazy_field is not None
    }


def per_event_retire(self, events):
    """The sweep as one ``note_exclusion`` per (event, live field) pair."""
    for event in events:
        self.event_index.delete(event)
        for field in lazy_fields(self).values():
            self.metrics.field_exclusions += field.note_exclusion(event.event_id)


def make_sub(sub_id, topic="sale", radius=1_200.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, topic)]),
        radius=radius,
    )


def make_event(event_id, x, y, now, ttl, topic="sale"):
    return Event(
        event_id, {"topic": topic}, Point(x, y), arrived_at=now, expires_at=now + ttl
    )


def make_server(**config_fields):
    return ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=400),
        ServerConfig(initial_rate=1.0, repair=True, **config_fields),
        event_index=BEQTree(SPACE, emax=32),
    )


def make_fleet():
    return ShardedElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=400),
        ServerConfig(initial_rate=2.0, repair=True),
        shards=2,
        executor=SerialExecutor(),
        event_index_factory=lambda: BEQTree(SPACE, emax=32),
    )


def known_events(server):
    return {
        sub_id: sorted(field._position)
        for sub_id, field in sorted(lazy_fields(server).items())
    }


def drive(
    server, shard_servers, *, ticks, extract_at=None, rebalance_at=None,
    seed=20150531, after_each=lambda what: None,
):
    """A seeded publish / report / expire run; returns everything the
    batched sweep must leave untouched.  ``after_each`` is called with a
    label after every operation on the server."""
    rng = random.Random(seed)
    positions = {}
    server.transport = CallbackTransport(
        locate=lambda sub_id: (positions[sub_id], Point(0, 0))
    )
    log, trail = [], []

    def record(notifications):
        log.extend((n.sub_id, n.event.event_id, n.seq) for n in notifications)

    next_id = 0
    for now in range(-5, 0):  # a corpus the first constructions scan
        server.bootstrap(
            [
                make_event(
                    next_id + k, rng.uniform(0, 10_000), rng.uniform(0, 10_000),
                    now, rng.randint(8, 40), rng.choice(TOPICS),
                )
                for k in range(12)
            ]
        )
        next_id += 12
    for sub_id in range(1, 9):
        positions[sub_id] = Point(rng.uniform(1_000, 9_000), rng.uniform(1_000, 9_000))
        notes, _ = server.subscribe(
            make_sub(sub_id, TOPICS[sub_id % 2]), positions[sub_id], Point(0, 0), 0
        )
        record(notes)
        after_each(f"subscribe {sub_id}")
    for now in range(1, ticks + 1):
        burst = [
            make_event(
                next_id + k, rng.uniform(0, 10_000), rng.uniform(0, 10_000),
                now, rng.randint(2, 25), rng.choice(TOPICS),
            )
            for k in range(rng.randint(2, 10))
        ]
        next_id += len(burst)
        record(server.publish_batch(burst, now))
        after_each(f"publish at {now}")
        mover = rng.randint(1, 8)
        step = Point(rng.uniform(-700, 700), rng.uniform(-700, 700))
        target = positions[mover]
        target = Point(
            min(max(target.x + step.x, 0.0), 10_000.0),
            min(max(target.y + step.y, 0.0), 10_000.0),
        )
        positions[mover] = target
        notes, _ = server.report_location(mover, target, Point(0, 0), now)
        record(notes)
        after_each(f"report {mover} at {now}")
        if now == extract_at:
            # events leave by extraction; their heap entries stay behind
            # and must be skipped (not counted again) when they come due
            gone = server.extract_events_in_columns([(0, 14)])
            assert gone
            trail.append(("extracted", sorted(e.event_id for e in gone)))
        if now == rebalance_at:
            assert server.rebalance_now(now, bounds=[0, 13, 40])
            after_each(f"rebalance at {now}")
        trail.append((now, server.expire_due_events(now)))
        after_each(f"expire at {now}")
        trail.append([known_events(shard) for shard in shard_servers])
    metrics = server.merged_metrics()
    return {
        "log": log,
        "trail": trail,
        "repairs": metrics.repairs,
        "repair_fallbacks": metrics.repair_fallbacks,
        "constructions": metrics.constructions,
        "field_exclusions": metrics.field_exclusions,
    }


class TestBatchedSweepIsUnobservable:
    def test_single_server_matches_the_per_event_loop(self, monkeypatch):
        def run():
            server = make_server()
            return drive(server, [server], ticks=90, extract_at=40)

        batched = run()
        monkeypatch.setattr(ElapsServer, "_retire_events", per_event_retire)
        reference = run()
        assert batched == reference
        # and the run was worth comparing: fields knew events, exclusions
        # reached them, repairs happened
        assert any(
            known for entry in batched["trail"] if isinstance(entry, list)
            for known in entry[0].values()
        )
        assert batched["field_exclusions"] > 0
        assert batched["repairs"] > 0
        assert batched["constructions"] > 8 + 90  # > one per subscribe + report

    def test_fleet_matches_across_a_forced_rebalance(self, monkeypatch):
        def run():
            with make_fleet() as server:
                return drive(
                    server, server.shard_servers, ticks=60, rebalance_at=30
                )

        batched = run()
        monkeypatch.setattr(ElapsServer, "_retire_events", per_event_retire)
        reference = run()
        assert batched == reference
        assert batched["log"]
        assert batched["field_exclusions"] > 0
        assert any(
            known for entry in batched["trail"] if isinstance(entry, list)
            for shard in entry for known in shard.values()
        )


@pytest.mark.fleet
class TestDefinition1SurvivesABandMove:
    """A band move hands events to a shard whose subscribers are already
    homed there: their regions were built without those events, and a
    retained matching field never revisits a scanned leaf.  The receiving
    shard has to rebuild them (DESIGN.md §15)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_no_held_region_comes_within_r_of_a_matching_event(self, seed):
        with make_fleet() as server:
            def check(what):
                assert not definition1_violations(server), f"after {what}"
                assert not impact_coverage_violations(server), f"after {what}"

            drive(
                server, server.shard_servers, ticks=60, rebalance_at=30,
                seed=seed, after_each=check,
            )
            assert server.rebalances == 1


class TestWhatAnExclusionCounts:
    def seen_event_server(self):
        """One subscriber whose field has scanned event 1 (out of radius)."""
        server = make_server()
        server.bootstrap([make_event(1, 7_600, 5_000, now=0, ttl=10)])
        server.subscribe(make_sub(1, radius=1_500.0), Point(5_000, 5_000), Point(0, 0), 0)
        field = server.subscribers[1].lazy_field
        assert 1 in field._position and server.metrics.field_exclusions == 0
        return server, field

    def test_delivered_then_expired_counts_once(self):
        server, field = self.seen_event_server()
        # the subscriber walks into range: delivery un-dilates the event ...
        notes, _ = server.report_location(1, Point(7_000, 5_000), Point(0, 0), 1)
        assert [n.event.event_id for n in notes] == [1]
        assert server.subscribers[1].lazy_field is field
        assert 1 not in field._position and 1 not in server._field_holders
        assert server.metrics.field_exclusions == 1
        # ... and the expiry of the same event reaches no field again
        assert server.expire_due_events(10) == 1
        assert server.metrics.field_exclusions == 1

    def test_extracted_event_is_not_counted_again_when_its_ttl_ends(self):
        server, field = self.seen_event_server()
        gone = server.extract_events_in_columns([(30, 31)])
        assert [e.event_id for e in gone] == [1]
        assert server.metrics.field_exclusions == 1
        assert 1 not in field._position
        assert server._expiry_heap  # the heap entry outlives the event
        assert server.expire_due_events(10) == 0
        assert server.metrics.field_exclusions == 1
        assert not server._expiry_heap

    def test_unseen_events_do_not_count(self):
        server, field = self.seen_event_server()
        server.publish(make_event(2, 7_700, 5_000, now=1, ttl=3, topic="show"), 1)
        assert server.expire_due_events(4) == 1
        assert server.metrics.field_exclusions == 0
        assert list(field._position) == [1]


class TestSweepCost:
    def test_one_field_call_per_live_field(self):
        """E retired events x S live fields: one call to each field that
        knows a retired event, none to the others."""
        rng = random.Random(5)
        server = make_server()
        events = [
            make_event(k, rng.uniform(0, 10_000), rng.uniform(0, 10_000), now=0, ttl=5)
            for k in range(64)
        ]
        server.bootstrap(events)
        for sub_id in range(1, 7):
            server.subscribe(
                make_sub(sub_id),
                Point(rng.uniform(2_000, 8_000), rng.uniform(2_000, 8_000)),
                Point(0, 0),
                0,
            )
        # a seventh subscriber's field knows nothing the sweep retires
        server.subscribe(make_sub(7, topic="show"), Point(5_000, 5_000), Point(0, 0), 0)
        fields = lazy_fields(server)
        assert len(fields) == 7 and not fields[7]._position
        calls = []
        known = {sub_id: len(field._position) for sub_id, field in fields.items()}
        for sub_id, field in fields.items():
            for name in ("note_exclusion", "note_exclusions"):
                inner = getattr(field, name)
                setattr(
                    field, name,
                    lambda arg, inner=inner, sub_id=sub_id: (calls.append(sub_id), inner(arg))[1],
                )
        assert server.expire_due_events(5) == 64
        assert sorted(calls) == sorted(s for s, count in known.items() if count)
        assert server.metrics.field_exclusions == sum(known.values()) > 0
        # the spy forwarded: every field is empty now, and so is the map
        assert not any(field._position for field in fields.values())
        assert not server._field_holders
