"""Crash recovery: kill/restart differentials and a stateful machine.

Two attack angles on DESIGN.md §13's recovery invariants:

* a **rule-based state machine** drives a journaled server and an
  un-journaled mirror through the same random operations, with clean
  crash+recover cycles thrown in, and requires the two to stay
  state-identical after every step;
* a **25-seed kill/restart differential** kills a journaled deployment
  mid-workload by truncating the journal at a random byte offset,
  restarts from snapshot + tail, lets every client reconcile through
  resync, re-runs the lost operations, and requires the client-visible
  delivered sets to equal an uninterrupted oracle's — zero lost and zero
  duplicate notifications — across the single-publish and batched paths
  and sharded fleets at K ∈ {1, 2, 4}.

Clients here are stationary (they report, but do not move between
reports): replay answers location pings from the last journaled
position, so for these workloads the recovered deployment is an *exact*
re-execution (see the replay-fidelity note in repro.testing.replay).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.core import IGM
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import (
    ElapsServer,
    SerialExecutor,
    ServerConfig,
    ShardedElapsServer,
)
from repro.system.journal import JournalSpec

SPACE = Rect(0, 0, 10_000, 10_000)
TOPICS = ("sale", "news")
PARKED = Point(0.0, 0.0)  # every subscriber's velocity: they stand still


def make_sub(sub_id, topic="sale", radius=2500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, topic)]),
        radius=radius,
    )


def build_single(path=None, snapshot_every=0):
    journal = None
    if path is not None:
        journal = JournalSpec(str(path), snapshot_every=snapshot_every)
    return ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=600),
        ServerConfig(initial_rate=1.0, journal=journal),
        event_index=BEQTree(SPACE, emax=32),
    )


def build_fleet(path=None, shards=2, snapshot_every=0):
    journal = None
    if path is not None:
        journal = JournalSpec(str(path), snapshot_every=snapshot_every)
    return ShardedElapsServer(
        Grid(40, SPACE),
        lambda: IGM(max_cells=600),
        ServerConfig(initial_rate=1.0, journal=journal),
        shards=shards,
        executor=SerialExecutor(),
        event_index_factory=lambda: BEQTree(SPACE, emax=32),
    )


# ----------------------------------------------------------------------
# The 25-seed kill/restart differential
# ----------------------------------------------------------------------
def make_workload(seed, subs=8, ticks=30):
    """A deterministic operation trace with stationary subscribers.

    Returns ``(positions, ops)`` where each op is the ``(method, args)``
    command a journal record or a fleet coordinator would carry.
    """
    rng = random.Random(seed)
    positions = {
        sub_id: Point(rng.uniform(500, 9500), rng.uniform(500, 9500))
        for sub_id in range(1, subs + 1)
    }
    event_id = 1000
    corpus = []
    for _ in range(10):
        event_id += 1
        corpus.append(Event(
            event_id, {"topic": rng.choice(TOPICS)},
            Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
            arrived_at=0, expires_at=rng.choice((None, 15)),
        ))
    ops = [("bootstrap", (corpus,))]
    for sub_id, position in positions.items():
        topic = TOPICS[sub_id % len(TOPICS)]
        ops.append(("subscribe", (make_sub(sub_id, topic), position, PARKED, 0)))

    def fresh_event(now):
        nonlocal event_id
        event_id += 1
        return Event(
            event_id, {"topic": rng.choice(TOPICS)},
            Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
            arrived_at=now,
            expires_at=None if rng.random() < 0.5 else now + rng.randint(3, 10),
        )

    for now in range(1, ticks + 1):
        roll = rng.random()
        if roll < 0.5:
            ops.append(("publish", (fresh_event(now), now)))
        elif roll < 0.75:
            ops.append(("publish_batch",
                        ([fresh_event(now) for _ in range(rng.randint(2, 4))], now)))
        elif roll < 0.9:
            sub_id = rng.randint(1, subs)
            ops.append(("report_location", (sub_id, positions[sub_id], PARKED, now)))
        else:
            ops.append(("expire_due_events", (now,)))
    return positions, ops


def apply_op(server, op, received):
    """Run one ``(method, args)`` command the way recovery and replay
    do; fold the notifications it returns into ``received``."""
    method, args = op
    outcome = getattr(server, method)(*args)
    if isinstance(outcome, tuple):  # (notifications, safe region)
        outcome = outcome[0]
    if not isinstance(outcome, list):  # bootstrap, expiry: nothing delivered
        return
    for notification in outcome:
        received.setdefault(notification.sub_id, set()).add(
            notification.event.event_id
        )


def run_oracle(builder, ops):
    """The uninterrupted run: what every client should end up with."""
    server = builder(None)
    received = {}
    for op in ops:
        apply_op(server, op, received)
    server.close()
    return received


def journal_seqs(server):
    """The per-journal sequence frontier of a deployment (singleton
    tuple for one server, one entry per band for a fleet)."""
    if isinstance(server, ShardedElapsServer):
        return tuple(worker.journal.seq for worker in server.shard_servers)
    return (server.journal.seq,)


def applied_seqs(server):
    if isinstance(server, ShardedElapsServer):
        return tuple(worker.applied_seq for worker in server.shard_servers)
    return (server.applied_seq,)


def truncate_random_log(path, server, rng):
    """Simulate the kill: rip bytes off the end of one journal file."""
    if isinstance(server, ShardedElapsServer):
        band = rng.randrange(len(server.shard_servers))
        log = os.path.join(str(path), f"band-{band}", "journal.log")
    else:
        log = os.path.join(str(path), "journal.log")
    size = os.path.getsize(log)
    with open(log, "r+b") as handle:
        handle.truncate(rng.randint(0, size))


def run_crash_differential(builder, path, seed):
    positions, ops = make_workload(seed)
    oracle = run_oracle(builder, ops)

    rng = random.Random(seed * 31 + 7)
    crash_at = rng.randint(len(ops) // 3, len(ops) - 2)

    server = builder(path)
    received = {}
    op_seqs = []
    for op in ops[:crash_at]:
        apply_op(server, op, received)
        op_seqs.append(journal_seqs(server))
    server.close()
    truncate_random_log(path, server, rng)

    revived = builder(path)
    assert revived.recover() >= 0
    applied = applied_seqs(revived)

    # Every surviving client reconnects and reconciles what it holds.
    last_arg = ops[crash_at][1][-1]  # ``now``, except on a bootstrap
    crash_now = last_arg if isinstance(last_arg, int) else 0
    for sub_id, position in positions.items():
        if sub_id not in revived.subscribers:
            continue  # its subscribe record was lost; the op re-runs below
        notifications, _ = revived.resync(
            sub_id, position, Point(0.0, 0.0),
            sorted(received.get(sub_id, ())), now=crash_now,
        )
        for notification in notifications:
            received.setdefault(notification.sub_id, set()).add(
                notification.event.event_id
            )

    # Resume from the first operation the journal did not retain.
    resume = crash_at
    for index, seqs in enumerate(op_seqs):
        if any(s > a for s, a in zip(seqs, applied)):
            resume = index
            break
    for op in ops[resume:]:
        apply_op(revived, op, received)
    revived.close()

    assert received == oracle, (
        f"seed {seed}: client-visible delivery diverged from the oracle"
    )


CRASH_CONFIGS = [
    ("single", lambda path: build_single(path)),
    ("single-snap", lambda path: build_single(path, snapshot_every=8)),
    ("fleet-1", lambda path: build_fleet(path, shards=1)),
    ("fleet-2", lambda path: build_fleet(path, shards=2)),
    ("fleet-4", lambda path: build_fleet(path, shards=4)),
]


def _crash_params():
    params = []
    for seed in range(25):
        name, builder = CRASH_CONFIGS[seed % len(CRASH_CONFIGS)]
        marks = [pytest.mark.recovery] if seed >= len(CRASH_CONFIGS) else []
        params.append(pytest.param(seed, builder, id=f"seed{seed}-{name}",
                                   marks=marks))
    return params


@pytest.mark.parametrize("seed,builder", _crash_params())
def test_kill_restart_loses_and_duplicates_nothing(seed, builder, tmp_path):
    run_crash_differential(builder, tmp_path, seed)


def test_journaling_is_transparent(tmp_path):
    """Without a crash, a journaled run delivers notification-for-
    notification what an un-journaled run delivers (seq stamps included)."""
    _, ops = make_workload(seed=99)

    def collect(server):
        wire = []
        received = {}
        for op in ops:
            apply_op(server, op, received)
        for sub_id, record in sorted(server.subscribers.items()):
            wire.append((sub_id, tuple(sorted(record.delivered)), record.next_seq))
        server.close()
        return wire, received

    plain = collect(build_single(None))
    journaled = collect(build_single(tmp_path))
    assert plain == journaled


# ----------------------------------------------------------------------
# The stateful differential machine
# ----------------------------------------------------------------------
class JournaledServerMachine(RuleBasedStateMachine):
    """A journaled server and an un-journaled mirror fed identical
    operations; clean crash+recover cycles must leave them identical."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="elaps-journal-")
        self.journaled = build_single(self.dir, snapshot_every=0)
        self.mirror = build_single(None)
        self.journaled.bootstrap([])
        self.mirror.bootstrap([])
        self.now = 0
        self.next_sub = 1
        self.next_event = 1

    def _both(self, call):
        left = call(self.journaled)
        right = call(self.mirror)
        return left, right

    def _fresh_event(self, x, y, topic, ttl):
        self.next_event += 1
        return Event(
            self.next_event, {"topic": topic}, Point(x, y),
            arrived_at=self.now,
            expires_at=None if ttl == 0 else self.now + ttl,
        )

    coordinates = st.tuples(
        st.integers(min_value=0, max_value=9999),
        st.integers(min_value=0, max_value=9999),
    )

    @rule(position=coordinates, topic=st.sampled_from(TOPICS))
    def subscribe(self, position, topic):
        self.now += 1
        self.next_sub += 1
        sub = make_sub(self.next_sub, topic)
        point = Point(float(position[0]), float(position[1]))
        left, right = self._both(
            lambda s: s.subscribe(sub, point, Point(0.0, 0.0), now=self.now)[0]
        )
        assert [n.event.event_id for n in left] == [n.event.event_id for n in right]

    @rule(position=coordinates, topic=st.sampled_from(TOPICS),
          ttl=st.integers(min_value=0, max_value=6))
    def publish(self, position, topic, ttl):
        self.now += 1
        event = self._fresh_event(float(position[0]), float(position[1]), topic, ttl)
        left, right = self._both(lambda s: s.publish(event, self.now))
        assert [n.sub_id for n in left] == [n.sub_id for n in right]

    @rule(positions=st.lists(coordinates, min_size=2, max_size=4),
          topic=st.sampled_from(TOPICS))
    def publish_batch(self, positions, topic):
        self.now += 1
        events = [
            self._fresh_event(float(x), float(y), topic, ttl=5)
            for x, y in positions
        ]
        left, right = self._both(lambda s: s.publish_batch(list(events), self.now))
        assert (
            [(n.sub_id, n.event.event_id) for n in left]
            == [(n.sub_id, n.event.event_id) for n in right]
        )

    @rule(position=coordinates)
    def report(self, position):
        subs = sorted(self.journaled.subscribers)
        if not subs:
            return
        self.now += 1
        sub_id = subs[position[0] % len(subs)]
        point = Point(float(position[0]), float(position[1]))
        left, right = self._both(
            lambda s: s.report_location(sub_id, point, Point(0.0, 0.0),
                                        now=self.now)[0]
        )
        assert [n.event.event_id for n in left] == [n.event.event_id for n in right]

    @rule()
    def expire(self):
        self.now += 1
        left, right = self._both(lambda s: s.expire_due_events(self.now))
        assert left == right

    @rule()
    def snapshot(self):
        self.journaled.snapshot()

    @rule()
    def crash_and_recover(self):
        """A clean kill: close, rebuild from disk, recover."""
        self.journaled.close()
        self.journaled = build_single(self.dir)
        self.journaled.recover()

    @invariant()
    def state_matches_the_mirror(self):
        assert sorted(self.journaled.subscribers) == sorted(self.mirror.subscribers)
        for sub_id, record in self.mirror.subscribers.items():
            twin = self.journaled.subscribers[sub_id]
            assert twin.delivered == record.delivered
            assert twin.next_seq == record.next_seq
            assert twin.location == record.location
        for topic in TOPICS:
            expression = make_sub(0, topic).expression
            assert (
                sorted(e.event_id for e in self.journaled.corpus_matches(expression))
                == sorted(e.event_id for e in self.mirror.corpus_matches(expression))
            )

    def teardown(self):
        self.journaled.close()
        self.mirror.close()
        shutil.rmtree(self.dir, ignore_errors=True)


JournaledServerMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestJournaledServerMachine = JournaledServerMachine.TestCase
