"""Microbenchmarks of the hot operations (multi-round pytest-benchmark).

Not a paper figure — these pin the per-operation costs that every macro
figure is built from, so performance regressions in the core structures
show up even when the macro shapes still hold:

* BEQ-Tree subscription match (Algorithm 2) and event insert;
* subscription-index event matching (the publish hot path);
* one iGM safe-region construction;
* WAH encoding of a typical safe region.
"""

from __future__ import annotations

import itertools

from repro.bitmap import WAHBitmap
from repro.core import ConstructionRequest, IGM, StaticMatchingField, SystemStats
from repro.datasets import TwitterLikeGenerator
from repro.geometry import Grid, Point, Rect, interleave
from repro.index import BEQTree, SubscriptionIndex

SPACE = Rect(0, 0, 50_000, 50_000)
GENERATOR = TwitterLikeGenerator(SPACE, seed=5)
EVENTS = GENERATOR.events(8_000)
SUBSCRIPTIONS = GENERATOR.subscriptions(200, size=3, radius=3_000.0)


def test_micro_beq_match(benchmark):
    tree = BEQTree(SPACE, emax=512)
    tree.insert_all(EVENTS)
    queries = itertools.cycle(
        [(s, e.location) for s, e in zip(SUBSCRIPTIONS, EVENTS)]
    )

    def match_one():
        subscription, at = next(queries)
        return tree.match(subscription, at)

    benchmark(match_one)


def test_micro_beq_insert(benchmark):
    fresh = GENERATOR.event_stream(start_id=10_000_000, seed_offset=9)
    tree = BEQTree(SPACE, emax=512)
    tree.insert_all(EVENTS)

    def insert_one():
        tree.insert(next(fresh))

    benchmark(insert_one)


def test_micro_subscription_index_publish(benchmark):
    index = SubscriptionIndex(GENERATOR.frequency_hint())
    for subscription in SUBSCRIPTIONS:
        index.insert(subscription)
    events = itertools.cycle(EVENTS)

    def match_event():
        return index.match_event(next(events))

    benchmark(match_event)


def test_micro_igm_construction(benchmark):
    grid = Grid(120, SPACE)
    subscription = SUBSCRIPTIONS[0]
    matching = [e.location for e in EVENTS if subscription.be_matches(e)]
    strategy = IGM(max_cells=2_500)
    # start from a spot where a real expansion happens (a safe cell far
    # enough from the matching events), so the benchmark measures an
    # actual construction rather than the degenerate empty-region path
    stats = SystemStats(event_rate=20.0, total_events=len(EVENTS))
    request = None
    for x in range(2_000, 50_000, 3_000):
        for y in range(2_000, 50_000, 3_000):
            candidate = ConstructionRequest(
                location=Point(float(x), float(y)),
                velocity=Point(60, 10),
                matching_field=StaticMatchingField(grid, matching, 3_000.0),
                stats=stats,
            )
            if strategy.construct(candidate).safe.area_cells() >= 100:
                request = candidate
                break
        if request is not None:
            break
    assert request is not None, "no viable start position found"

    benchmark(strategy.construct, request)


def test_micro_wah_encode(benchmark):
    # a realistic blob-shaped safe region of ~800 cells on a 128-grid
    cells = [
        (i, j)
        for i in range(40, 72)
        for j in range(48, 74)
        if (i - 56) ** 2 + (j - 61) ** 2 <= 220
    ]
    positions = [interleave(i, j) for (i, j) in cells]

    benchmark(WAHBitmap.from_positions, positions, 128 * 128)
