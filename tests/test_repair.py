"""Incremental safe-region repair (repair mode) and its fallback budget.

The tentpole contract: an out-of-radius type-II hit carves the event's
dilation out of the cached safe region instead of re-running the
construction strategy, ships only the removed cells, and leaves the
impact region installed (it remains a covering superset, Definition 2).
The :class:`~repro.core.RepairBudget` bounds the drift; past it the
server falls back to a full construction, exactly the always-rebuild
behaviour repair mode is measured against.
"""

from __future__ import annotations

import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IGM, RegionDelta, RepairBudget, SafeRegion
from repro.core.field import dilate_point
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect, cells_of_codes, codes_of_cells
from repro.index import BEQTree
from repro.system import CallbackTransport, ServerConfig, ElapsServer
from repro.testing import ScalarIGM

SPACE = Rect(0, 0, 10_000, 10_000)


def make_server(strategy=None, **config_fields):
    return ElapsServer(
        Grid(40, SPACE),
        strategy or IGM(max_cells=400),
        ServerConfig(initial_rate=1.0, **config_fields),
        event_index=BEQTree(SPACE, emax=32))


def make_sub(sub_id=1, radius=1500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def sale(event_id, x, y):
    return Event(event_id, {"topic": "sale"}, Point(x, y))


class TestRepairBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RepairBudget(max_removed_fraction=0.0)
        with pytest.raises(ValueError):
            RepairBudget(max_removed_fraction=1.5)
        with pytest.raises(ValueError):
            RepairBudget(bm_slack=0.5)

    def test_empty_region_always_rebuilds(self):
        budget = RepairBudget()
        assert budget.rebuild_reason(
            live_cells=0, cells_at_build=10, removed_since_build=10, beta=1.0
        ) == "empty"

    def test_removed_fraction_trigger(self):
        budget = RepairBudget(max_removed_fraction=0.35)
        common = dict(live_cells=50, cells_at_build=100, beta=1.0)
        assert budget.rebuild_reason(removed_since_build=35, **common) is None
        assert (
            budget.rebuild_reason(removed_since_build=36, **common)
            == "removed_fraction"
        )

    def test_balance_drift_trigger(self):
        # bm scales linearly in ne: bm_at_build * (ne_estimate / ne_at_build)
        budget = RepairBudget(bm_slack=4.0)
        common = dict(
            live_cells=90,
            cells_at_build=100,
            removed_since_build=5,
            beta=1.0,
            bm_at_build=0.9,
            ne_at_build=10,
        )
        assert budget.rebuild_reason(ne_estimate=40, **common) is None  # bm~3.6
        assert budget.rebuild_reason(ne_estimate=50, **common) == "balance"

    def test_no_bm_information_never_trips_balance(self):
        budget = RepairBudget()
        assert budget.rebuild_reason(
            live_cells=90,
            cells_at_build=100,
            removed_since_build=5,
            beta=1.0,
            bm_at_build=None,
            ne_at_build=0,
            ne_estimate=100,
        ) is None


class TestRepairPath:
    def repair_server(self, **kwargs):
        server = make_server(repair=True, **kwargs)
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)))
        return server, sub

    def test_out_of_radius_hit_repairs_instead_of_rebuilding(self):
        server, sub = self.repair_server()
        record = server.subscribers[sub.sub_id]
        built = server.metrics.constructions
        before = record.safe
        event = sale(10, 7_600, 5_000)  # inside impact, outside radius
        assert server.publish(event, now=1) == []
        assert server.metrics.constructions == built  # no reconstruction
        assert server.metrics.repairs == 1
        assert server.metrics.repair_fallbacks == 0
        # the repaired region is exactly the old one minus the dilation
        unsafe = set()
        dilate_point(server.grid, event.location, sub.radius, unsafe)
        assert set(record.safe.iter_cells()) == set(before.iter_cells()) - unsafe
        assert set(record.safe.iter_cells()) < set(before.iter_cells())  # carved

    def test_repaired_region_excludes_every_cell_near_the_event(self):
        server, sub = self.repair_server()
        record = server.subscribers[sub.sub_id]
        event = sale(10, 7_600, 5_000)
        server.publish(event, now=1)
        for cell in record.safe.iter_cells():
            distance = server.grid.cell_rect(cell).min_distance_to_point(event.location)
            assert distance > sub.radius

    def test_impact_region_stays_installed_across_repairs(self):
        server, sub = self.repair_server()
        installed = server.impact_index._by_subscriber[sub.sub_id]
        server.publish(sale(10, 7_600, 5_000), now=1)
        assert server.impact_index._by_subscriber[sub.sub_id] is installed
        # and it still covers the (shrunken) safe region's dilation: the
        # repaired region is a subset of the built one, so the covering
        # property is inherited — spot-check every live cell is covered
        live = server.subscribers[sub.sub_id].safe.codes
        assert set(live.tolist()) <= set(installed.tolist())

    def test_repair_ships_through_the_region_sink_without_a_delta_sink(self):
        server, sub = self.repair_server()
        shipped = []
        server.transport = CallbackTransport(
            ship_region=lambda sub_id, region: shipped.append(region))
        server.publish(sale(10, 7_600, 5_000), now=1)
        assert len(shipped) == 1
        assert shipped[0] is server.subscribers[sub.sub_id].safe

    def test_delta_sink_takes_precedence_and_applies_cleanly(self):
        server, sub = self.repair_server()
        record = server.subscribers[sub.sub_id]
        before = record.safe
        pushes, deltas = [], []
        server.transport = CallbackTransport(
            ship_region=lambda sub_id, region: pushes.append(region),
            ship_delta=lambda sub_id, removed, region: deltas.append(removed))
        server.publish(sale(10, 7_600, 5_000), now=1)
        assert pushes == []
        assert len(deltas) == 1
        # client-side application reproduces the server's repaired region
        applied = RegionDelta(server.grid, deltas[0]).apply_to(before)
        assert applied == record.safe
        # and the WAH identity holds bitmap-for-bitmap
        delta_bitmap = RegionDelta(server.grid, deltas[0]).to_bitmap()
        assert before.to_bitmap().difference(delta_bitmap) == record.safe.to_bitmap()

    def test_miss_ships_nothing(self):
        """A dilation that misses the region entirely moves zero bytes."""
        from repro.system.protocol import LocationPing, LocationReport, message_bytes

        server, sub = self.repair_server()
        shipped = []
        server.transport = CallbackTransport(
            ship_region=lambda sub_id, region: shipped.append(region))
        # repeating the location: the second carve only covers territory
        # the first already removed, so nothing ships beyond the ping round
        event = sale(10, 7_600, 5_000)
        server.publish(event, now=1)
        shipped.clear()
        down_after_first = server.metrics.wire_bytes_down
        delta_bytes_after_first = server.metrics.delta_region_bytes
        server.publish(sale(11, 7_600, 5_000), now=2)
        assert server.metrics.repairs == 2
        assert shipped == []  # second carve removed nothing
        assert server.metrics.delta_region_bytes == delta_bytes_after_first
        assert server.metrics.wire_bytes_down == down_after_first + message_bytes(
            LocationPing(sub.sub_id)
        )

    def test_budget_exhaustion_falls_back_to_full_construction(self):
        server, sub = self.repair_server()
        server.repair_budget = RepairBudget(max_removed_fraction=0.01)
        built = server.metrics.constructions
        server.publish(sale(10, 7_600, 5_000), now=1)
        assert server.metrics.repairs == 0
        assert server.metrics.repair_fallbacks == 1
        assert server.metrics.constructions == built + 1
        # the fallback construction re-arms repair state
        assert server.subscribers[sub.sub_id].repair is not None

    def test_batch_repairs_once_per_subscriber(self):
        # a generous budget: three carves remove a lot of the region, and
        # this test is about batching, not about the fallback triggers
        server, sub = self.repair_server()
        server.repair_budget = RepairBudget(max_removed_fraction=1.0)
        built = server.metrics.constructions
        burst = [sale(10, 7_600, 5_000), sale(11, 7_700, 5_200), sale(12, 2_400, 5_000)]
        server.publish_batch(burst, now=1)
        assert server.metrics.constructions == built
        assert server.metrics.repairs == 1  # one carve covers the burst
        record = server.subscribers[sub.sub_id]
        for event in burst:
            unsafe = set()
            dilate_point(server.grid, event.location, sub.radius, unsafe)
            assert not (set(record.safe.iter_cells()) & unsafe)

    def test_the_same_stream_delivers_the_same_pairs_in_fewer_bytes_down(self):
        """What the repair-vs-rebuild series asserted before it timed
        anything: deliveries are pinned by geometry, and a carve ships
        the removed cells where a rebuild ships a whole region."""

        def drive(repair):
            rng = random.Random(43)
            server = make_server(repair=repair)
            positions = {}
            for sub_id in range(1, 9):
                positions[sub_id] = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
                server.subscribe(make_sub(sub_id), positions[sub_id], Point(0, 0), now=0)
            server.transport = CallbackTransport(
                locate=lambda sub_id: (positions[sub_id], Point(0, 0)))
            pairs = []
            for event_id in range(100, 180):
                event = sale(event_id, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
                pairs += [
                    (n.sub_id, n.event.event_id)
                    for n in server.publish(event, now=event_id - 99)
                ]
            return pairs, server.metrics

        rebuilt_pairs, rebuilt = drive(repair=False)
        repaired_pairs, repaired = drive(repair=True)
        assert repaired_pairs == rebuilt_pairs and rebuilt_pairs
        assert repaired.repairs > 0 and repaired.constructions < rebuilt.constructions
        assert repaired.wire_bytes_down < rebuilt.wire_bytes_down

    def test_repair_off_by_default(self):
        server = make_server()
        assert server.config.repair is False
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)))
        built = server.metrics.constructions
        server.publish(sale(10, 7_600, 5_000), now=1)
        assert server.metrics.constructions == built + 1
        assert server.metrics.repairs == 0
        assert server.metrics.repair_fallbacks == 0


class TestFieldReuse:
    """The per-subscriber LazyBEQField surviving across constructions."""

    def test_field_cached_in_repair_ondemand_mode(self):
        server = make_server(repair=True)
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        record = server.subscribers[sub.sub_id]
        field = record.lazy_field
        assert field is not None
        assert server._matching_field(record) is field

    def test_no_cache_without_repair(self):
        server = make_server()
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        assert server.subscribers[sub.sub_id].lazy_field is None

    def test_cached_field_learns_new_events_outside_scanned_leaves(self):
        """A reused field must see events published after its leaf scans.

        This is the correctness half of reuse: scanned BEQ leaves are
        never revisited, so without the note_event feed a later
        construction would run on a stale corpus and could emit an
        invalid (too large) region.
        """
        server = make_server(repair=True)
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)))
        # outside the impact region: no communication, but the cached
        # field is fed so the event constrains the next construction
        far = sale(10, 500, 500)
        server.publish(far, now=1)
        field = server.subscribers[sub.sub_id].lazy_field
        assert far.event_id in field._position
        # force a reconstruction via a location report near the event
        notifications, region = server.report_location(
            sub.sub_id, Point(1_600, 1_600), Point(20, 0), now=2
        )
        assert notifications == []  # still out of radius
        for cell in region.iter_cells():
            assert (
                server.grid.cell_rect(cell).min_distance_to_point(far.location)
                > sub.radius
            )

    def test_a_retained_field_notes_only_arrivals_in_its_scanned_box(self):
        """An arrival outside the bounding box of the leaves a field has
        scanned lies in a leaf it never scanned, which coverage growth
        scans when it gets there: the field does not note it, and no
        exclusion is ever routed to it for that event."""
        server = make_server(IGM(max_cells=60), repair=True)
        rng = random.Random(11)
        server.bootstrap([
            sale(k, rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for k in range(1, 400)
        ])
        sub = make_sub(radius=300.0)
        server.subscribe(sub, Point(1_500, 1_500), Point(0, 0), now=0)
        field = server.subscribers[sub.sub_id].lazy_field
        known = set(field._position)
        far = [
            sale(1_000 + k, rng.uniform(8_500, 9_900), rng.uniform(8_500, 9_900))
            for k in range(50)
        ]
        for event in far:
            server.publish(event, now=1)
        assert set(field._position) == known
        assert not {event.event_id for event in far} & set(server._field_holders)

    def test_an_exclusion_undilates_the_retained_field(self):
        """An expired event leaves the retained field without a trace:
        the same field lives on, and its next construction builds what a
        fresh field over the surviving corpus builds."""
        server = make_server(repair=True)
        sub = make_sub()
        doomed = Event(
            10, {"topic": "sale"}, Point(6_600, 5_000), arrived_at=0, expires_at=3
        )
        server.bootstrap([doomed])
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        record = server.subscribers[sub.sub_id]
        field = record.lazy_field
        assert doomed.event_id in field._position and field.cover.any()
        # 1.6 km off (r = 1.5 km) but 1.35 km from the subscriber's cell
        assert record.safe.is_empty()
        server.expire_due_events(now=5)
        assert doomed.event_id not in field._position
        assert server._matching_field(record) is field
        assert server.metrics.field_exclusions == 1
        _, region = server.report_location(sub.sub_id, Point(5_000, 5_000), Point(20, 0), 6)
        assert record.lazy_field is field
        assert not field.cover.any() and not field.counts.any() and not field.overflow
        fresh = make_server()
        fresh.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=6)
        assert not region.is_empty()
        assert region.codes.tolist() == fresh.subscribers[sub.sub_id].safe.codes.tolist()

    def test_expiry_reaches_only_the_fields_that_know_the_event(self):
        server = make_server(repair=True)
        server.subscribe(make_sub(1), Point(5_000, 5_000), Point(20, 0), now=0)
        show = Subscription(
            2, BooleanExpression([Predicate("topic", Operator.EQ, "show")]), radius=1500.0
        )
        server.subscribe(show, Point(5_000, 5_000), Point(20, 0), now=0)
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)))
        doomed = Event(
            10, {"topic": "sale"}, Point(7_600, 5_000), arrived_at=1, expires_at=3
        )
        server.publish(doomed, now=1)
        knows, ignorant = (server.subscribers[s].lazy_field for s in (1, 2))
        assert doomed.event_id in knows._position
        assert doomed.event_id not in ignorant._position
        assert server._field_holders[doomed.event_id] == {1}
        calls = []
        for sub_id, field in ((1, knows), (2, ignorant)):
            inner = field.note_exclusions
            field.note_exclusions = (
                lambda ids, inner=inner, sub_id=sub_id: (calls.append(sub_id), inner(ids))[1]
            )
        before = server.metrics.field_exclusions
        server.expire_due_events(now=5)
        assert calls == [1]
        assert doomed.event_id not in knows._position
        assert doomed.event_id not in server._field_holders
        assert server.metrics.field_exclusions == before + 1

    def test_resync_drops_the_cached_field(self):
        server = make_server(repair=True)
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        record = server.subscribers[sub.sub_id]
        old = record.lazy_field
        assert old is not None
        server.resync(sub.sub_id, Point(5_000, 5_000), Point(20, 0), (), now=1)
        field = record.lazy_field
        assert field is not old
        # the fresh field shares the record's (rebound) delivered set
        assert field._excluded is record.delivered

    def test_resync_retires_every_derived_matching_artefact(self):
        """Resync rebinds ``delivered`` to a fresh set; everything built
        against (or carrying drift from) the old one must be retired, not
        just the lazy field: the repair drift state references the
        pre-reconnect world too."""
        server = make_server(repair=True)
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)))
        record = server.subscribers[sub.sub_id]
        # accumulate drift: one carve leaves removed_since_build > 0
        server.publish(sale(10, 7_600, 5_000), now=1)
        assert record.repair is not None
        assert record.repair.removed_since_build > 0

        server.resync(sub.sub_id, Point(5_000, 5_000), Point(20, 0), (10,), now=2)

        # the post-resync construction installed *fresh* drift state
        assert record.repair is not None
        assert record.repair.removed_since_build == 0
        # and a post-resync carve works against the fresh region
        before = record.safe
        server.publish(sale(11, 7_600, 5_000), now=3)
        assert set(record.safe.iter_cells()) < set(before.iter_cells())


class TestRecoveryNeverRestoresDerivedState:
    """DESIGN.md §13's recovery invariant: snapshots persist only ground
    truth — lazy fields and repair drift are
    derived, never restored, so the first post-restart type-II event
    falls back to a full construction instead of carving against state
    from the previous incarnation."""

    def journaled_server(self, path):
        from repro.system.journal import JournalSpec

        return make_server(repair=True, journal=JournalSpec(str(path)))

    def test_first_type_ii_after_recovery_is_a_construction_fallback(self, tmp_path):
        server = self.journaled_server(tmp_path)
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        # live drift before the crash: one successful carve
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)))
        server.publish(sale(10, 7_600, 5_000), now=1)
        assert server.subscribers[sub.sub_id].repair is not None
        server.snapshot()
        server.close()

        revived = self.journaled_server(tmp_path)
        revived.recover()
        record = revived.subscribers[sub.sub_id]
        assert record.repair is None          # drift did not survive the image
        assert record.lazy_field is None
        assert record.safe is not None        # ...but the region itself did

        fallbacks = revived.metrics.repair_fallbacks
        repairs = revived.metrics.repairs
        revived.publish(sale(11, 7_600, 5_000), now=2)
        assert revived.metrics.repair_fallbacks == fallbacks + 1
        assert revived.metrics.repairs == repairs  # no carve against old state
        # the fallback construction re-armed repair with fresh drift state
        assert record.repair is not None
        assert record.repair.removed_since_build == 0
        revived.close()


class TestDegenerateConstruction:
    """The Lemma-1 fallback: an empty safe region still needs an impact
    region covering the subscriber's notification circle."""

    def degenerate_server(self):
        server = make_server()
        sub = make_sub()
        # matching, undelivered (outside the radius), but so close that
        # its dilation swallows the subscriber's own cell: the expansion
        # rejects the start cell and the safe region comes out empty
        server.bootstrap([sale(1, 5_000 + 1_600, 5_000)])
        _, region = server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        return server, sub, region

    def test_empty_region_installs_the_dilated_subscriber_cell(self):
        server, sub, region = self.degenerate_server()
        assert region.is_empty()
        record = server.subscribers[sub.sub_id]
        cell = server.grid.cell_of(record.location)
        expected = set(
            server.grid.cells_within_radius(cell, sub.radius, inclusive=True)
        )
        expected.add(cell)
        installed = server.impact_index._by_subscriber[sub.sub_id]
        assert set(cells_of_codes(installed)) == expected

    def test_degenerate_impact_still_catches_deliverable_events(self):
        server, sub, _ = self.degenerate_server()
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)))
        # an event inside the notification circle must reach the client
        # even though the safe region is empty (Lemma 1's whole point)
        notifications = server.publish(sale(2, 5_400, 5_000), now=1)
        assert [n.event.event_id for n in notifications] == [2]

    def test_repair_on_empty_region_falls_back(self):
        server = make_server(repair=True)
        sub = make_sub()
        server.bootstrap([sale(1, 5_000 + 1_600, 5_000)])
        _, region = server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        assert region.is_empty()
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)))
        built = server.metrics.constructions
        server.publish(sale(2, 6_700, 5_000), now=1)  # in impact, out of radius
        assert server.metrics.repairs == 0
        assert server.metrics.repair_fallbacks == 1
        assert server.metrics.constructions == built + 1


class TestDegenerateImpactMemo:
    """A subscriber in an unsafe cell reports every timestamp; its
    degenerate impact region — the dilation of its own cell — is
    re-installed only when that cell changes."""

    def spied_server(self):
        server = make_server(repair=True)
        sub = make_sub()
        # both stay undelivered at every spot the tests stand on (1.6 km
        # off, r = 1.5 km), and each keeps cells (20, 20) and (21, 20)
        # unsafe: the second one still does once the first is delivered
        server.bootstrap([sale(1, 5_000 + 1_600, 5_000), sale(2, 5_300, 5_000 + 1_600)])
        _, region = server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        assert region.is_empty()
        calls = []
        index = server.impact_index
        for name in ("replace", "replace_region"):
            inner = getattr(index, name)
            setattr(
                index, name,
                lambda *args, inner=inner, name=name: (calls.append(name), inner(*args))[1],
            )
        return server, sub, calls

    def dilation_of(self, server, sub, cell):
        cells = set(server.grid.cells_within_radius(cell, sub.radius, inclusive=True))
        return codes_of_cells(cells | {cell}).tolist()

    def test_same_cell_installs_nothing(self):
        server, sub, calls = self.spied_server()
        before = server.impact_index.cells_of(sub.sub_id)
        built = server.metrics.constructions
        # (5_000, 5_000) and (5_100, 5_100) share cell (20, 20) of the 250 m grid
        _, region = server.report_location(sub.sub_id, Point(5_100, 5_100), Point(20, 0), now=1)
        assert region.is_empty()
        assert calls == []
        assert server.impact_index.cells_of(sub.sub_id) is before
        # ... and everything else about the construction is counted as ever
        assert server.metrics.constructions == built + 1
        assert server.metrics.degenerate_constructions == 2
        assert server.subscribers[sub.sub_id].degenerate_cell == (20, 20)

    def test_crossing_a_cell_edge_installs_the_new_dilation(self):
        server, sub, calls = self.spied_server()
        _, region = server.report_location(sub.sub_id, Point(5_300, 5_000), Point(20, 0), now=1)
        assert region.is_empty()
        assert "replace" in calls
        installed = server.impact_index.cells_of(sub.sub_id)
        assert installed.tolist() == self.dilation_of(server, sub, (21, 20))
        assert server.subscribers[sub.sub_id].degenerate_cell == (21, 20)

    def test_degenerate_normal_degenerate_reinstalls(self):
        server, sub, calls = self.spied_server()
        degenerate = server.impact_index.cells_of(sub.sub_id)
        # far from the event the construction is a normal one ...
        _, region = server.report_location(sub.sub_id, Point(1_000, 1_000), Point(20, 0), now=1)
        record = server.subscribers[sub.sub_id]
        assert not region.is_empty() and record.degenerate_cell is None
        assert server.impact_index.cells_of(sub.sub_id).tolist() != degenerate.tolist()
        # ... and back in the old cell the dilation is installed again,
        # although it is the cell the last degenerate install was for
        del calls[:]
        _, region = server.report_location(sub.sub_id, Point(5_000, 5_000), Point(20, 0), now=2)
        assert region.is_empty()
        assert "replace" in calls
        assert server.impact_index.cells_of(sub.sub_id).tolist() == degenerate.tolist()

    def test_unsubscribe_and_resubscribe_start_clean(self):
        server, sub, calls = self.spied_server()
        server.unsubscribe(sub.sub_id)
        assert server.impact_index.cells_of(sub.sub_id).size == 0
        for _ in range(2):  # a fresh subscribe, then a resubscribe
            del calls[:]
            _, region = server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=1)
            assert region.is_empty()
            assert "replace" in calls
            installed = server.impact_index.cells_of(sub.sub_id)
            assert installed.tolist() == self.dilation_of(server, sub, (20, 20))

    def test_a_restored_snapshot_starts_clean(self, tmp_path):
        from repro.system.journal import JournalSpec

        def journaled():
            return make_server(repair=True, journal=JournalSpec(str(tmp_path)))

        server = journaled()
        sub = make_sub()
        server.bootstrap([sale(1, 5_000 + 1_600, 5_000)])
        server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        assert server.subscribers[sub.sub_id].degenerate_cell == (20, 20)
        server.snapshot()
        server.close()
        revived = journaled()
        revived.recover()
        record = revived.subscribers[sub.sub_id]
        assert record.degenerate_cell is None
        installed = revived.impact_index.cells_of(sub.sub_id)
        assert installed.tolist() == self.dilation_of(revived, sub, (20, 20))
        _, region = revived.report_location(sub.sub_id, Point(5_100, 5_100), Point(20, 0), now=1)
        assert region.is_empty()
        assert record.degenerate_cell == (20, 20)
        assert revived.impact_index.cells_of(sub.sub_id).tolist() == installed.tolist()
        revived.close()


#: per-test hypothesis example budget; the CI differential lane raises it
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "25"))


def cross_check_corpus_matches(server):
    """Hold every ``_deliver_corpus_matches`` call of ``server`` against
    the event index: the delivered events are ``event_index.match(...,
    exclude=delivered)`` *as a list*, and a field that vouches for the
    circle knows exactly the tree's events there — it is exact, so every
    id it returns is live and undelivered (the class invariant of
    ``LazyBEQField``)."""
    inner = server._deliver_corpus_matches

    def checked(record, location, now, field=None):
        expected = server.event_index.match(
            record.subscription, location, exclude=record.delivered
        )
        if field is not None:
            known = field.matches_in_circle(location)
            if known is not None:
                assert sorted(known) == sorted(event.event_id for event in expected)
        notifications = inner(record, location, now, field=field)
        assert [n.event for n in notifications] == expected
        return notifications

    server._deliver_corpus_matches = checked


@pytest.mark.differential
class TestRetainedFieldIsTheLocationUpdateMatcher:
    """Under ``repair=True`` a location update's corpus match is answered
    by the subscriber's retained matching field when it covers the circle
    and at most one event survives; the BEQ-Tree is the oracle."""

    def server_with_walker(self, events, start=Point(3_000, 5_000)):
        """A cross-checked server whose subscriber's field covers well
        past x = 6 500 after the first construction."""
        server = make_server(repair=True)
        cross_check_corpus_matches(server)
        server.bootstrap(events)
        sub = make_sub()
        notifications, _ = server.subscribe(sub, start, Point(20, 0), now=0)
        assert notifications == []
        return server, sub

    def report(self, server, sub, location, now=1):
        answered = server.metrics.corpus_matches_from_field
        notifications, _ = server.report_location(
            sub.sub_id, location, Point(20, 0), now=now
        )
        from_field = server.metrics.corpus_matches_from_field - answered
        return [n.event.event_id for n in notifications], bool(from_field)

    def test_an_event_at_distance_exactly_r_is_delivered_from_the_field(self):
        at_r = sale(1, 6_500.0, 5_000.0)
        beyond = sale(2, 5_000.0, math.nextafter(6_500.0, math.inf))
        server, sub = self.server_with_walker([at_r, beyond])
        assert self.report(server, sub, Point(5_000.0, 5_000.0)) == ([1], True)

    def test_a_circle_reaching_outside_the_covered_rectangle_asks_the_tree(self):
        server, sub = self.server_with_walker([sale(1, 9_500, 9_500)])
        covered = server.subscribers[sub.sub_id].lazy_field._covered
        assert covered[2] < 39 and covered[3] < 39
        assert self.report(server, sub, Point(9_000, 9_000)) == ([1], False)

    def test_two_survivors_are_delivered_in_the_trees_order(self):
        events = [sale(k, 5_000 + 300 * k, 5_000 + 100 * k) for k in range(1, 5)]
        server, sub = self.server_with_walker(events)
        ids, from_field = self.report(server, sub, Point(5_400, 5_000))
        assert len(ids) >= 2 and not from_field  # order held by the cross-check
        # the rest already delivered, nothing survives: the field answers
        assert self.report(server, sub, Point(5_450, 5_000), now=2) == ([], True)

    def test_a_mid_life_bootstrap_retires_the_retained_fields(self):
        """``bootstrap`` stores events without arrival processing, so no
        retained field hears of them and a scanned leaf is never
        revisited: the field must go, or the next report misses a
        delivery and the next construction builds an unsafe region."""
        server, sub = self.server_with_walker([sale(1, 9_500, 9_500)])
        record = server.subscribers[sub.sub_id]
        assert record.lazy_field is not None
        inside, outside = sale(2, 5_600, 5_000), sale(3, 7_000, 5_000)
        server.bootstrap([inside, outside])
        assert record.lazy_field is None
        ids, from_field = self.report(server, sub, Point(5_000, 5_000))
        assert ids == [2] and not from_field
        safe = server.subscribers[sub.sub_id].safe
        for cell in safe.iter_cells():
            assert (
                server.grid.cell_rect(cell).min_distance_to_point(outside.location)
                > sub.radius
            )
        # an idempotent re-load stores nothing and retires nothing
        server.bootstrap([inside, outside])
        assert record.lazy_field is not None

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scalar=st.booleans())
    def test_every_corpus_match_equals_the_event_index(self, seed, scalar):
        rng = random.Random(seed)
        strategy = (ScalarIGM if scalar else IGM)(max_cells=rng.choice([40, 400]))
        server = make_server(strategy, repair=True)
        cross_check_corpus_matches(server)
        topics = ("sale", "show")
        positions = {}
        server.transport = CallbackTransport(
            locate=lambda sub_id: (positions[sub_id], Point(20, 0))
        )
        next_id = iter(range(1, 1 << 30))

        def fresh_events(count, now):
            return [
                Event(
                    next(next_id), {"topic": rng.choice(topics)},
                    Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
                    arrived_at=now, expires_at=now + rng.randint(2, 30),
                )
                for _ in range(count)
            ]

        def subscribe(sub_id, now):
            positions[sub_id] = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            subscription = Subscription(
                sub_id,
                BooleanExpression([Predicate("topic", Operator.EQ, rng.choice(topics))]),
                radius=rng.choice([400.0, 1_200.0, 2_500.0]),
            )
            server.subscribe(subscription, positions[sub_id], Point(20, 0), now)

        server.bootstrap(fresh_events(rng.randint(0, 80), 0))
        for sub_id in range(1, 5):
            subscribe(sub_id, 0)
        for now in range(1, 40):
            sub_id = rng.randint(1, 4)
            roll = rng.random()
            if roll < 0.45:
                # mostly small steps (the covered rectangle holds the
                # circle), sometimes a jump out of it
                reach = 300 if rng.random() < 0.8 else 6_000
                at = positions[sub_id]
                positions[sub_id] = Point(
                    min(max(at.x + rng.uniform(-reach, reach), 0.0), 10_000.0),
                    min(max(at.y + rng.uniform(-reach, reach), 0.0), 10_000.0),
                )
                server.report_location(sub_id, positions[sub_id], Point(20, 0), now)
            elif roll < 0.75:
                server.publish_batch(fresh_events(rng.randint(1, 12), now), now)
            elif roll < 0.85:
                server.expire_due_events(now)
            elif roll < 0.89:
                lo = rng.randint(0, 35)
                server.extract_events_in_columns([(lo, lo + rng.randint(1, 5))])
            elif roll < 0.93:
                server.bootstrap(fresh_events(rng.randint(1, 6), now))
            elif roll < 0.97:
                received = rng.sample(
                    sorted(server.subscribers[sub_id].delivered),
                    k=len(server.subscribers[sub_id].delivered) // 2,
                )
                server.resync(sub_id, positions[sub_id], Point(20, 0), received, now)
            else:
                subscribe(sub_id, now)


class TestExactFieldCostsWhatARebuildCosts:
    """The retained field forgets delivered, expired and extracted events,
    so a repair-mode server under on-demand matching makes the rounds a
    server matching the full corpus per construction makes — on the
    figure runner's cells (iGM, 8 subscribers x 40 timestamps, grid 120,
    f = 20, TTL 20, a 2k corpus)."""

    @pytest.mark.parametrize("seed, rounds", [(5, 12), (6, 32), (7, 8)])
    def test_on_demand_repair_makes_the_full_matching_rounds(self, seed, rounds):
        from repro.system import ExperimentConfig, build_simulation

        def location_updates(mode):
            config = ExperimentConfig(
                strategy="iGM", subscribers=8, timestamps=40, grid_n=120,
                event_rate=20, event_ttl=20, initial_events=2_000, seed=seed,
                repair=True, matching_mode=mode,
            )
            stats = build_simulation(config).run(config.timestamps).stats
            return stats.location_update_rounds, stats.event_arrival_rounds

        on_demand = location_updates("ondemand")
        assert on_demand[0] == rounds
        assert on_demand == location_updates("full")
