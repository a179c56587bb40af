"""Derived state lives on the thing it describes and dies with it.

Three defects the side tables hid and one they did not cause, one
regression test each (DESIGN.md §9, §10, §14).  Each prints the number
it measures under ``-s`` — CI's array-core-vs-scalar-oracle lane runs the
file that way — so a regression shows as a number in the log, not only
as a red test:

* a matching field's arrays are held by the field alone: dropping the
  field frees them at once, cyclic collector or not (*projected fields
  alive*);
* a resubscribe starts a fresh :class:`SubscriberRecord`: nothing built
  for the old radius or expression is shipped again (*unsafe cells
  held*);
* a mid-life ``bootstrap`` reaches what every matching mode derives
  from the corpus (*unsafe cells held*);
* per-radius tables belong to the :class:`Disk` they are computed from,
  one per distinct offset set however many float radii arrive (*table
  sets per 1,000 radii*);
* a retained field's array projection holds the band of grid rows its
  coverage reaches, not the whole grid (*view bytes per subscriber*);
* a region is its Morton codes, in memory as on the wire (*region bytes
  per subscriber*, *impact-index bytes per subscriber*, *GC-tracked
  objects*).
"""

from __future__ import annotations

import gc
import random
import sys
import weakref

import numpy as np
import pytest

from repro.core import IDGM, IGM, GridMethod, LazyBEQField
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import ElapsServer, ServerConfig
from repro.testing import (
    ScalarIDGM,
    ScalarIGM,
    definition1_violations,
    impact_coverage_violations,
)

SPACE = Rect(0, 0, 10_000, 10_000)
STILL = Point(0, 0)


def make_sub(sub_id, radius=1_200.0):
    return Subscription(
        sub_id, BooleanExpression([Predicate("topic", Operator.EQ, "sale")]), radius=radius
    )


def sale(event_id, x, y):
    return Event(event_id, {"topic": "sale"}, Point(x, y), arrived_at=0)


def make_server(strategy, grid=None, **config_fields):
    return ElapsServer(
        grid or Grid(50, SPACE),
        strategy,
        ServerConfig(initial_rate=1.0, **config_fields),
        event_index=BEQTree(SPACE, emax=32),
    )


def scattered_sales(rng, count, first_id=1):
    return [
        sale(first_id + k, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        for k in range(count)
    ]


class TestViewsDieWithTheirField:
    """Test (i).  When the strategy kept the projections in a
    ``WeakKeyDictionary``, its values referenced their own keys: N of N
    fields stayed alive."""

    CYCLES = 60

    def alive(self):
        """Live ``(fields, fields with projected arrays)`` in the
        process, found by type."""
        fields = [o for o in gc.get_objects() if isinstance(o, LazyBEQField)]
        return len(fields), sum(field.cover is not None for field in fields)

    def without_the_collector(self, drive):
        """Run ``drive`` with the cyclic collector off and return the
        fields and projected fields it left alive, plus its field weakrefs still
        live — only reference counts may free anything."""
        gc.collect()
        gc.disable()
        try:
            fields_before, projected_before = self.alive()
            refs = drive()
            fields_after, projected_after = self.alive()
        finally:
            gc.enable()
        return (
            fields_after - fields_before,
            projected_after - projected_before,
            sum(ref() is not None for ref in refs),
        )

    def test_the_strategy_holds_nothing_but_its_parameters(self):
        for vector_cls, scalar_cls in ((IGM, ScalarIGM), (IDGM, ScalarIDGM)):
            assert vars(vector_cls(max_cells=7)) == vars(scalar_cls(max_cells=7))
            assert vector_cls.construct is not scalar_cls.construct

    def test_subscribe_unsubscribe_cycles_leave_only_the_live_subscribers(self):
        rng = random.Random(23)
        server = make_server(IGM(max_cells=120), repair=True)
        server.bootstrap(scattered_sales(rng, 40))
        server.subscribe(make_sub(1), Point(5_000, 5_000), STILL, 0)  # stays

        def drive():
            refs = []
            for cycle in range(self.CYCLES):
                sub = make_sub(100 + cycle, radius=rng.uniform(600, 1_500))
                at = Point(rng.uniform(1_000, 9_000), rng.uniform(1_000, 9_000))
                server.subscribe(sub, at, STILL, cycle)
                field = server.subscribers[sub.sub_id].lazy_field
                assert field.cover is not None  # the construction projected it
                refs.append(weakref.ref(field))
                server.unsubscribe(sub.sub_id)
            return refs

        fields, projected, live_refs = self.without_the_collector(drive)
        print(
            f"\nprojected fields alive after {self.CYCLES} subscribe/unsubscribe "
            f"cycles (1 live subscriber, gc off): {projected} new, fields "
            f"{fields} new, weakrefs live {live_refs}"
        )
        assert (fields, projected, live_refs) == (0, 0, 0)
        # the subscriber that stayed keeps exactly its own projected field,
        # and only it is left in the event id -> holders map
        kept = server.subscribers[1].lazy_field
        assert kept.radius == 1_200.0 and kept.cover is not None
        assert server._field_holders
        assert set().union(*server._field_holders.values()) == {1}

    def test_a_dropped_server_frees_its_fields(self):
        """The event id -> holders map names subscribers, not fields, so a
        server dropped whole frees its fields by reference count."""
        rng = random.Random(29)

        def drive():
            server = make_server(IGM(max_cells=120), repair=True)
            server.bootstrap(scattered_sales(rng, 40))
            for sub_id in range(1, 6):
                at = Point(rng.uniform(1_000, 9_000), rng.uniform(1_000, 9_000))
                server.subscribe(make_sub(sub_id), at, STILL, 0)
            assert server._field_holders
            return [weakref.ref(r.lazy_field) for r in server.subscribers.values()]

        assert self.without_the_collector(drive) == (0, 0, 0)

    def test_reports_without_repair_leave_nothing(self):
        """``repair=False`` (the default) builds a fresh field for every
        construction; nothing may outlive the construction."""
        rng = random.Random(29)
        server = make_server(IGM(max_cells=120))
        server.bootstrap(scattered_sales(rng, 40))
        server.subscribe(make_sub(1), Point(5_000, 5_000), STILL, 0)
        built = []
        construct = server.strategy.construct

        def spy(request):
            built.append(weakref.ref(request.matching_field))
            return construct(request)

        server.strategy.construct = spy

        def drive():
            for tick in range(1, self.CYCLES + 1):
                at = Point(rng.uniform(1_000, 9_000), rng.uniform(1_000, 9_000))
                server.report_location(1, at, STILL, tick)
            return built

        fields, views, live_refs = self.without_the_collector(drive)
        print(
            f"\nviews alive after {self.CYCLES} reports on a repair=False "
            f"server (gc off): {views} new, fields {fields} new, "
            f"weakrefs live {live_refs}"
        )
        assert len(built) == self.CYCLES
        assert (fields, views, live_refs) == (0, 0, 0)


class TestResubscribeStartsAFreshRecord:
    """Test (ii).  GM's regions do not depend on the location, so a
    record that outlived a resubscribe would re-ship the region built for
    the old radius (1,418 unsafe cells held when a per-subscriber region
    cache did exactly that)."""

    def test_a_larger_radius_is_not_served_the_old_radius_region(self):
        rng = random.Random(31)
        corner = Point(800, 800)
        # nothing within the larger radius of the subscriber: no delivery
        # changes the matching events between the two subscribes
        events = [
            e for e in scattered_sales(rng, 6) if e.location.distance_to(corner) > 3_300
        ]
        assert events
        shipped = {}
        grid = Grid(50, SPACE)  # shared: regions compare equal over one grid

        def server_with_corpus():
            server = make_server(GridMethod(), grid, matching_mode="full")
            server.bootstrap(events)
            return server

        server = server_with_corpus()
        server.subscribe(make_sub(1, radius=500.0), corner, STILL, 0)
        assert not definition1_violations(server)
        assert not impact_coverage_violations(server)
        notes, shipped["resubscribed"] = server.subscribe(
            make_sub(1, radius=3_000.0), corner, STILL, 1
        )
        assert notes == []

        fresh = server_with_corpus()
        _, shipped["fresh"] = fresh.subscribe(make_sub(1, radius=3_000.0), corner, STILL, 1)

        unsafe = {cell for _, _, cell in definition1_violations(server)}
        held = shipped["resubscribed"].area_cells()
        print(
            f"\nunsafe cells held after resubscribing r 500 -> 3000 "
            f"(full + GM): {len(unsafe)} of {held} "
            f"(a fresh server ships {shipped['fresh'].area_cells()})"
        )
        assert not unsafe
        assert not impact_coverage_violations(server)
        assert shipped["resubscribed"] == shipped["fresh"]
        complement, codes = server.impact_index.region_of(1)
        fresh_complement, fresh_codes = fresh.impact_index.region_of(1)
        assert complement == fresh_complement
        assert codes.tolist() == fresh_codes.tolist()


class TestAMidLifeLoadReachesEveryMatchingMode:
    """Test (iv).  A ``bootstrap`` on a live server stores events that no
    per-subscriber matching artefact heard of; every later construction
    must still respect them (a stale per-subscriber match list held 32
    unsafe cells on this probe)."""

    @pytest.mark.parametrize("mode", ["full", "ondemand"])
    def test_a_region_built_after_the_load_respects_the_loaded_events(self, mode):
        server = make_server(GridMethod(), matching_mode=mode)
        server.bootstrap([sale(1, 9_000, 9_000)])
        server.subscribe(make_sub(1, radius=500.0), Point(1_000, 1_000), STILL, 0)
        server.bootstrap([sale(2, 5_000, 5_000)])
        server.report_location(1, Point(1_200, 1_000), STILL, 1)
        unsafe = definition1_violations(server)
        print(f"\nunsafe cells held after a mid-life bootstrap ({mode} + GM): {len(unsafe)}")
        assert not unsafe
        assert not impact_coverage_violations(server)


class TestPerRadiusTablesBelongToTheirDisk:
    """Test (iii).  At the parent every distinct float radius left its own
    five tables on the grid for good: 1,000 radii, 1,000 table sets."""

    def tables(self, disk):
        return (
            disk.offsets,
            [a.tolist() for a in disk.arrays],
            disk.strips,
            {d: m.tolist() for d, m in disk.masks.items()},
            [[a.tolist() for a in disk.candidates[key]] for key in (0, 1, 37, 255)],
        )

    def test_a_thousand_radii_share_the_disks_they_compute(self):
        rng = random.Random(37)
        grid = Grid(200, Rect(0, 0, 50_000, 50_000))
        radii = [rng.uniform(100, 300) for _ in range(1_000)]
        disks = [grid.disk(radius) for radius in radii]
        offset_sets = {disk.offsets for disk in disks}
        table_sets = {id(disk) for disk in disks}
        print(
            f"\ntable sets per 1,000 radii in (100, 300) on Grid(200, 50 km): "
            f"{len(table_sets)} for {len(offset_sets)} distinct offset sets"
        )
        assert len(table_sets) == len(offset_sets) == 2
        assert set(grid._disks) == offset_sets
        # the closed variant is the same set unless a cell sits at
        # distance exactly r: it shares the disk, it does not copy it
        assert all(grid.disk(r, inclusive=True) is grid.disk(r) for r in radii)

    def test_pushing_the_memo_past_its_limit_changes_no_table(self, monkeypatch):
        monkeypatch.setattr(Grid, "DISK_MEMO_LIMIT", 16)
        rng = random.Random(41)
        grid = Grid(40, SPACE)
        radii = [rng.uniform(100, 3_000) for _ in range(12)]
        before = {radius: grid.disk(radius) for radius in radii}
        tables = {radius: self.tables(disk) for radius, disk in before.items()}
        for _ in range(100):  # ever-new radii from outside
            grid.disk(rng.uniform(100, 3_000))
            assert len(grid._disk_memo) <= Grid.DISK_MEMO_LIMIT
        assert not all(key in grid._disk_memo for key in ((r, False) for r in radii))
        for radius in radii:
            disk = grid.disk(radius)
            assert disk is before[radius]  # interned: found again, not rebuilt
            assert self.tables(disk) == tables[radius]


class TestViewsHoldTheRowsTheirCoverageReaches:
    """Test (v).  A dense view held ``n x n`` uint8 cover counts and
    int32 φ counts per subscriber — 200 KB at ``n`` = 200 — for a field
    whose covered rectangle is a few dozen cells."""

    def test_a_stationary_drive_holds_a_band_per_subscriber(self):
        rng = random.Random(43)
        space = Rect(0, 0, 50_000, 50_000)
        grid = Grid(200, space)
        server = ElapsServer(
            grid, IGM(max_cells=60), ServerConfig(initial_rate=1.0, repair=True),
            event_index=BEQTree(space, emax=32),
        )

        def sales(first_id, count):
            return [
                sale(first_id + k, rng.uniform(0, 50_000), rng.uniform(0, 50_000))
                for k in range(count)
            ]

        server.bootstrap(sales(1, 1_280))
        subscribers = 200
        for sub_id in range(1, subscribers + 1):
            at = Point(rng.uniform(0, 50_000), rng.uniform(0, 50_000))
            server.subscribe(make_sub(sub_id, radius=rng.uniform(100, 300)), at, STILL, 0)
        for tick in range(1, 11):
            server.publish_batch(sales(10_000 * tick, 64), tick)
        held = sum(
            record.lazy_field.cover.nbytes + record.lazy_field.counts.nbytes
            for record in server.subscribers.values()
        )
        dense = grid.n * grid.n * (np.dtype(np.uint8).itemsize + np.dtype(np.int32).itemsize)
        per_subscriber = held / subscribers
        print(
            f"\nview bytes per subscriber ({subscribers} stationary subscribers, "
            f"Grid(200), repair on): {per_subscriber:,.0f} "
            f"(a dense view: {dense:,}); regrowths "
            f"{server.metrics.view_regrowths} over "
            f"{server.metrics.constructions} constructions"
        )
        assert server.metrics.view_regrowths > 0
        assert per_subscriber <= dense / 8


def _deep_bytes(container) -> int:
    """``sys.getsizeof`` of a dict and of every key and value in it (a
    value's own members too when it is a set)."""
    total = sys.getsizeof(container)
    for key, value in container.items():
        total += sys.getsizeof(key) + sys.getsizeof(value)
        if isinstance(value, (set, frozenset)):
            total += sum(map(sys.getsizeof, value))
    return total


class TestARegionIsItsCodes:
    """Test (vi).  A held region is one ascending int64 array of Morton
    codes, and the impact index posts those codes: no ``(i, j)`` tuple
    per cell, no frozenset per region."""

    def test_a_commute_set_up_holds_code_arrays(self):
        from bench import inputs, serving

        world = inputs.world()
        subscribers = 150
        gc.collect()
        tracked_before = len(gc.get_objects())
        server = serving.single_server(world, 120, 500, 20.0)
        server.bootstrap(inputs.staggered_corpus(world, 3501, 6_000, 300))
        routes = inputs.commuter_routes(inputs.WORLD_SEED, subscribers, 2, 60.0)
        subscriptions = inputs.subscriptions(
            world, inputs.WORLD_SEED, subscribers, (2_000.0, 2_000.0)
        )
        for subscription, route in zip(subscriptions, routes):
            server.subscribe(subscription, route.position_at(0), route.velocity_at(0), 0)
        gc.collect()
        tracked = len(gc.get_objects()) - tracked_before
        records = server.subscribers.values()
        assert all(record.safe.codes.dtype == np.int64 for record in records)
        cells = sum(record.safe.area_cells() for record in records)
        region_bytes = sum(record.safe.codes.nbytes for record in records)
        index = server.impact_index
        index_bytes = _deep_bytes(index._by_cell) + _deep_bytes(index._by_subscriber)
        print(
            f"\ncommute_sim-shaped set-up ({subscribers} subscribers, Grid(120), "
            f"seed 3501): region bytes per subscriber "
            f"{region_bytes / subscribers:,.0f} ({cells / subscribers:,.0f} cells), "
            f"impact-index bytes per subscriber {index_bytes / subscribers:,.0f}, "
            f"GC-tracked objects the set-up left {tracked:,}"
        )
        assert region_bytes == 8 * cells
