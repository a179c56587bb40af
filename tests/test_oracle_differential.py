"""Differential testing against the brute-force oracle.

The contract: on any workload,

    BEQ (built event by event)  ==  BEQ (z-order batch insert)
        ==  OpIndex  ==  Quadtree  ==  oracle

where the oracle is the O(S*E) scan of :mod:`repro.testing.oracle`,
every index answers one ``match`` per query (the server's only matching
entry point on an event index), and "==" means the same notification
pairs.

Workloads come from two generators: the paper-shaped Twitter-like
dataset (shared Zipf vocabulary, hotspot locations — realistic
selectivity) and the adversarial uniform generator of ``conftest``
(tiny attribute space — heavy predicate collisions).  Together the two
hypothesis suites run 230 randomized workloads per test session, plus
the churn suite below.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from conftest import random_events

from repro.datasets import TwitterLikeGenerator
from repro.geometry import Point, Rect
from repro.index import BEQTree, OpIndex, QuadTree
from repro.testing import (
    BruteForceOracle,
    definition1_violations,
    impact_coverage_violations,
)
from repro.testing.oracle import ids

SPACE = Rect(0, 0, 10_000, 10_000)


def random_points(rng: random.Random, count: int):
    return [
        Point(rng.uniform(SPACE.x_min, SPACE.x_max), rng.uniform(SPACE.y_min, SPACE.y_max))
        for _ in range(count)
    ]


def assert_all_agree(events, queries):
    """The four-way equivalence on one workload."""
    oracle = BruteForceOracle(events)
    beq = BEQTree(SPACE, emax=16)
    beq.insert_all(events)
    beq_batch_built = BEQTree(SPACE, emax=16)
    beq_batch_built.insert_batch(events)
    opindex = OpIndex()
    opindex.insert_all(events)
    quadtree = QuadTree(SPACE, max_per_leaf=8)
    quadtree.insert_all(events)

    matched = [beq.match(sub, at) for sub, at in queries]

    for i, (sub, at) in enumerate(queries):
        expected = sorted(ids(oracle.match(sub, at)))
        # A z-order batch insert builds the same corpus.
        assert sorted(ids(beq_batch_built.match(sub, at))) == expected, sub.sub_id
        # Set-equivalence of every index against the oracle.
        assert sorted(ids(matched[i])) == expected, sub.sub_id
        assert sorted(ids(opindex.match(sub, at))) == expected, sub.sub_id
        assert sorted(ids(quadtree.match(sub, at))) == expected, sub.sub_id

    # The canonical pair set, cross-checked once per workload.
    assert {
        (queries[i][0].sub_id, event.event_id)
        for i, result in enumerate(matched)
        for event in result
    } == oracle.matching_pairs(queries)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    event_count=st.integers(1, 150),
    sub_count=st.integers(1, 12),
    sub_size=st.integers(1, 4),
    radius=st.floats(200, 8_000),
)
def test_twitter_workloads_agree(seed, event_count, sub_count, sub_size, radius):
    """Paper-shaped workloads: Zipf vocabulary, hotspot locations."""
    generator = TwitterLikeGenerator(SPACE, seed=seed)
    events = generator.events(event_count)
    subscriptions = generator.subscriptions(sub_count, size=sub_size, radius=radius)
    rng = random.Random(seed ^ 0xBEEF)
    queries = list(zip(subscriptions, random_points(rng, sub_count)))
    assert_all_agree(events, queries)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    event_count=st.integers(1, 120),
    sub_count=st.integers(1, 8),
)
def test_adversarial_workloads_agree(seed, event_count, sub_count):
    """Tiny attribute space: every predicate collides with every event."""
    rng = random.Random(seed)
    events = random_events(rng, SPACE, event_count, attributes=3)
    generator = TwitterLikeGenerator(SPACE, seed=seed)
    subscriptions = generator.subscriptions(sub_count, size=2)
    # Half the subscriptions speak the events' attribute language so the
    # collision machinery is actually exercised.
    from repro.expressions import BooleanExpression, Operator, Predicate, Subscription

    for k in range(sub_count // 2 + 1):
        attr = f"a{rng.randint(0, 2)}"
        subscriptions.append(
            Subscription(
                1000 + k,
                BooleanExpression([Predicate(attr, Operator.GE, rng.randint(0, 5))]),
                radius=rng.uniform(500, 9_000),
            )
        )
    queries = list(zip(subscriptions, random_points(rng, len(subscriptions))))
    assert_all_agree(events, queries)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_agreement_survives_churn(seed):
    """Cache invalidation: delete/reinsert between match rounds.

    The per-leaf clause caches must never serve results for events that
    left the corpus (or miss events that joined after the cache warmed).
    """
    generator = TwitterLikeGenerator(SPACE, seed=seed)
    rng = random.Random(seed)
    events = generator.events(80)
    subscriptions = generator.subscriptions(6, size=2, radius=4_000)
    queries = list(zip(subscriptions, random_points(rng, 6)))

    beq = BEQTree(SPACE, emax=16)
    beq.insert_batch(events)
    oracle = BruteForceOracle(events)
    for sub, at in queries:  # warm every leaf cache
        beq.match(sub, at)

    doomed = rng.sample(events, 30)
    for event in doomed:
        beq.delete(event)
        oracle.delete(event)
    fresh = generator.events(40, start_id=1_000, seed_offset=1)
    beq.insert_batch(fresh)
    for event in fresh:
        oracle.insert(event)

    for sub, at in queries:
        assert sorted(ids(beq.match(sub, at))) == sorted(ids(oracle.match(sub, at)))


# ----------------------------------------------------------------------
# Repair mode vs always-rebuild (the tentpole differential)
# ----------------------------------------------------------------------
def _run_event_workload(seed: int, *, repair: bool):
    """A seeded stationary-subscriber event stream on one server."""
    from repro.core import IGM
    from repro.geometry import Grid
    from repro.system import CallbackTransport, ElapsServer, ServerConfig

    generator = TwitterLikeGenerator(SPACE, seed=seed)
    subscriptions = generator.subscriptions(6, size=2, radius=2_000)
    rng = random.Random(seed ^ 0xC0FFEE)
    server = ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=200),
        ServerConfig(initial_rate=2.0, repair=repair),
        event_index=BEQTree(SPACE, emax=16))
    positions = {}
    log = []
    for subscription in subscriptions:
        location = random_points(rng, 1)[0]
        positions[subscription.sub_id] = location
        notifications, _ = server.subscribe(
            subscription, location, Point(0.0, 0.0), now=0
        )
        log.extend((n.timestamp, n.sub_id, n.event.event_id) for n in notifications)
    server.transport = CallbackTransport(
        locate=lambda sub_id: (positions[sub_id], Point(0.0, 0.0)))
    for step in range(10):
        events = generator.events(
            6, start_id=step * 6, arrived_at=step + 1, seed_offset=step
        )
        for event in events:
            log.extend(
                (n.timestamp, n.sub_id, n.event.event_id)
                for n in server.publish(event, step + 1)
            )
    return server, log


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_repair_and_rebuild_deliver_identical_notifications(seed):
    """Notification streams are pinned by geometry, not region policy.

    Any valid safe/impact region pair yields the same deliveries (an
    event is delivered iff within the radius when it arrives or when the
    subscriber reports) — so repair mode must reproduce always-rebuild's
    log exactly, and its regions must survive the brute-force validity
    oracle.
    """
    _, rebuild_log = _run_event_workload(seed, repair=False)
    repair_server, repair_log = _run_event_workload(seed, repair=True)
    assert repair_log == rebuild_log
    assert definition1_violations(repair_server) == []
    assert impact_coverage_violations(repair_server) == []


def test_repair_workload_actually_repairs():
    """The differential above is vacuous unless repairs really happen."""
    server, _ = _run_event_workload(7, repair=True)
    assert server.metrics.repairs > 0
    baseline, _ = _run_event_workload(7, repair=False)
    assert server.metrics.constructions < baseline.metrics.constructions


def test_oracle_event_direction_matches_query_direction():
    """matches_of_event is the transpose of match."""
    generator = TwitterLikeGenerator(SPACE, seed=7)
    events = generator.events(60)
    subscriptions = generator.subscriptions(8, size=2, radius=5_000)
    rng = random.Random(7)
    queries = list(zip(subscriptions, random_points(rng, 8)))
    oracle = BruteForceOracle(events)
    pairs = oracle.matching_pairs(queries)
    transposed = {
        (sub.sub_id, event.event_id)
        for event in events
        for sub in oracle.matches_of_event(event, queries)
    }
    assert transposed == pairs
