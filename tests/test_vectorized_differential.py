"""Strategy-differential suite: the array core vs its scalar oracle.

The array-backed construction core (:class:`repro.core.IGM` /
:class:`repro.core.IDGM`, DESIGN.md §14) claims *byte identity* with the
scalar loop of :mod:`repro.testing.oracle` — not approximate
agreement, not same-multiset-different-order: every field of every
:class:`RegionPair`, including the exact IEEE-754 bits of the balance-ratio
diagnostics and the frontier pop order, must match.  This module is the
enforcement: hypothesis-driven differentials over randomized corpora,
radii, termination budgets and caps, plus hand-built degenerate cases
(Lemma 1 empty regions, zero radius, boundary-straddling dilations) and
kernel-level differentials for every array primitive the core is built on
(point dilation, cell-set dilation, Morton interleave, WAH encoding).

Floats are compared as *bytes* (``struct.pack``), which is stricter than
``==``: it distinguishes ``-0.0`` from ``0.0`` and would catch a NaN
sneaking into one path only.

Every test carries the ``differential`` marker so CI can run this file as
its own lane with a raised example budget: set ``DIFFERENTIAL_EXAMPLES``
(default 25) to scale every hypothesis test in the module.
"""

from __future__ import annotations

import dataclasses
import os
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap.wah import WAHBitmap
import repro.core.field as field_module
from repro.core import IDGM, IGM
from repro.core.construction import ConstructionRequest
from repro.core.cost_model import SystemStats
from repro.core.field import LazyBEQField, StaticMatchingField, dilate_point, dilate_points
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect, cells_of_codes, codes_of_cells
from repro.geometry.grid import RING
from repro.geometry.zorder import interleave, interleave_array
from repro.index import BEQTree
from repro.system import CallbackTransport, ElapsServer, ExperimentConfig, build_simulation
from repro.testing import ScalarIDGM, ScalarIGM

from conftest import random_events

pytestmark = pytest.mark.differential

#: per-test hypothesis example budget; the CI differential lane raises it
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "25"))
DIFF_SETTINGS = settings(max_examples=EXAMPLES, deadline=None)

SPACE = Rect(0.0, 0.0, 10_000.0, 10_000.0)
GRID = Grid(25, SPACE)

#: (scalar oracle, array core) per strategy family
FAMILIES = {
    "iGM": (ScalarIGM, IGM),
    "idGM": (ScalarIDGM, IDGM),
}


def _float_bytes(value):
    """The raw IEEE-754 bytes of a float (None passes through)."""
    if value is None:
        return None
    return struct.pack("<d", value)


def assert_pairs_identical(scalar, vectorized):
    """Every RegionPair field equal — floats to the bit, order included."""
    assert scalar.safe == vectorized.safe
    assert scalar.impact == vectorized.impact
    assert scalar.cells_examined == vectorized.cells_examined
    assert _float_bytes(scalar.last_accepted_bm) == _float_bytes(
        vectorized.last_accepted_bm
    )
    assert _float_bytes(scalar.first_rejected_bm) == _float_bytes(
        vectorized.first_rejected_bm
    )
    assert scalar.matching_in_impact == vectorized.matching_in_impact
    assert scalar.visit_order == vectorized.visit_order
    # The wire encoding downstream of the pair must agree too (this also
    # crosses the WAH array cutover whenever the region is large).
    assert scalar.safe.to_bitmap() == vectorized.safe.to_bitmap()
    assert scalar.impact.to_bitmap() == vectorized.impact.to_bitmap()


def static_request(seed: int, radius=None, event_count=None) -> ConstructionRequest:
    """A seeded static-field request; fresh field every call (no sharing)."""
    rng = random.Random(seed)
    count = event_count if event_count is not None else rng.randint(0, 80)
    points = [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(count)
    ]
    if radius is None:
        radius = rng.choice(
            [0.0, rng.uniform(1, 60), rng.uniform(300, 2500), rng.uniform(4000, 9000)]
        )
    return ConstructionRequest(
        location=Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
        velocity=Point(rng.uniform(-40, 40), rng.uniform(-40, 40)),
        matching_field=StaticMatchingField(GRID, points, radius),
        stats=SystemStats(event_rate=rng.uniform(0.5, 8), total_events=200),
    )


# ----------------------------------------------------------------------
# Through a server: the same deliveries from the same constructions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_server_delivers_the_same_pairs_from_as_many_constructions(family):
    """What the construct sweep asserted before it timed anything: the
    cores build identical regions, so a server makes the same rebuild
    decisions and deliveries over either (repair off, as in the sweep)."""

    def drive(strategy_cls):
        rng = random.Random(61)
        server = ElapsServer(
            GRID, strategy_cls(max_cells=60), event_index=BEQTree(SPACE, emax=16)
        )
        server.bootstrap(random_events(rng, SPACE, 300, attributes=3))
        positions = {}
        pairs = []
        for sub_id in range(1, 7):
            positions[sub_id] = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            broad = BooleanExpression([Predicate(f"a{sub_id % 3}", Operator.GE, 0)])
            notes, _ = server.subscribe(
                Subscription(sub_id, broad, radius=1_500.0),
                positions[sub_id], Point(30, -10), now=0,
            )
            pairs += [(n.sub_id, n.event.event_id) for n in notes]
        server.transport = CallbackTransport(
            locate=lambda sub_id: (positions[sub_id], Point(30, -10)))
        for tick, event in enumerate(random_events(rng, SPACE, 120, attributes=3), 1):
            arrival = Event(1_000 + tick, event.attributes, event.location, arrived_at=tick)
            pairs += [(n.sub_id, n.event.event_id) for n in server.publish(arrival, tick)]
        return pairs, server.metrics.constructions, server.metrics.events_scanned

    scalar_cls, vectorized_cls = FAMILIES[family]
    scalar = drive(scalar_cls)
    assert scalar[0] and scalar[1] > 6  # deliveries, and rebuilds past the subscribes
    assert drive(vectorized_cls) == scalar


@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("mode", ["ondemand", "full"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_figure_runner_counts_the_same_over_the_scalar_oracle(family, mode, repair):
    """A figure cell as ``build_simulation`` builds it, then again with the
    server's strategy swapped for the scalar oracle: every counter of the
    result but the wall clock is the same, in both matching modes and with
    repair off and on.  ``view_regrowths`` counts the array core's own
    work: the oracle reads no array projection, so it counts none, and the core
    counts them only where a lazy field's coverage grows."""
    config = ExperimentConfig(
        strategy=family, matching_mode=mode, repair=repair, seed=5,
        subscribers=8, timestamps=40, grid_n=120, initial_events=2_000,
        event_rate=20.0, event_ttl=20, max_cells=1_000,
    )

    def counters(simulation):
        result = simulation.run(config.timestamps)
        stats = dataclasses.asdict(result.stats)
        del stats["server_seconds"]
        regrowths = stats.pop("view_regrowths")
        return result.notification_count, stats, regrowths

    scalar_cls, array_cls = FAMILIES[family]
    served = build_simulation(config)
    assert type(served.server.strategy) is array_cls
    oracle = build_simulation(config)
    oracle.server.strategy = scalar_cls(max_cells=config.max_cells)
    assert vars(oracle.server.strategy) == vars(served.server.strategy)
    expected = counters(served)
    assert expected[0] and expected[1]["constructions"] > config.subscribers
    assert not repair or expected[1]["repairs"]
    assert (expected[2] > 0) == (mode == "ondemand")
    assert counters(oracle) == expected[:2] + (0,)


# ----------------------------------------------------------------------
# RegionPair differentials
# ----------------------------------------------------------------------
@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    beta=st.sampled_from([0.25, 1.0, 4.0]),
    max_cells=st.sampled_from([None, 1, 7, 60, 400]),
    incremental_impact=st.booleans(),
)
def test_static_field_pairs_are_byte_identical(
    seed, family, beta, max_cells, incremental_impact
):
    """The core claim over fully materialised fields, all knobs randomized."""
    scalar_cls, vector_cls = FAMILIES[family]
    kwargs = dict(
        beta=beta,
        max_cells=max_cells,
        incremental_impact=incremental_impact,
        record_visits=True,
    )
    scalar_pair = scalar_cls(**kwargs).construct(static_request(seed))
    vector_pair = vector_cls(**kwargs).construct(static_request(seed))
    assert_pairs_identical(scalar_pair, vector_pair)


@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    emax=st.sampled_from([4, 16, 64]),
)
def test_lazy_beq_field_pairs_and_scan_counters_are_identical(seed, family, emax):
    """On-demand (BEQ-Tree) mode: identical pairs AND identical tree work.

    The array core grows field coverage through
    ``ensure_cell_neighbourhood`` instead of per-cell safety queries; the
    covered rectangles must evolve identically, so ``events_scanned`` and
    ``leaves_scanned`` — the Figure 13 server-work counters — must land on
    the same values, not just the same regions.
    """
    rng = random.Random(seed)
    grid = Grid(40, SPACE)
    events = random_events(rng, SPACE, rng.randint(20, 250))
    expression = BooleanExpression(
        [Predicate(f"a{rng.randint(0, 5)}", Operator.LE, rng.randint(2, 8))]
    )
    radius = rng.choice([rng.uniform(100, 900), rng.uniform(1200, 3000)])
    location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
    velocity = Point(rng.uniform(-40, 40), rng.uniform(-40, 40))
    stats = SystemStats(event_rate=rng.uniform(0.5, 6), total_events=len(events))

    def build(strategy_cls):
        tree = BEQTree(SPACE, emax=emax)
        tree.insert_all(events)
        field = LazyBEQField(grid, tree, expression, radius)
        request = ConstructionRequest(
            location=location,
            velocity=velocity,
            matching_field=field,
            stats=stats,
        )
        pair = strategy_cls(max_cells=120, record_visits=True).construct(request)
        return pair, field

    scalar_cls, vector_cls = FAMILIES[family]
    scalar_pair, scalar_field = build(scalar_cls)
    vector_pair, vector_field = build(vector_cls)
    assert_pairs_identical(scalar_pair, vector_pair)
    assert scalar_field.events_scanned == vector_field.events_scanned
    assert scalar_field.leaves_scanned == vector_field.leaves_scanned


def _border_location(rng: random.Random, grid: Grid) -> Point:
    """A point in a border row or column of ``grid``, a corner cell, or
    exactly on the space's edge."""
    low, high = SPACE.x_min, SPACE.x_max
    edge = rng.choice([low, high, rng.uniform(low, low + grid.cell_width),
                       rng.uniform(high - grid.cell_width, high)])
    other = rng.choice([edge, rng.uniform(low, high)])  # a corner, or anywhere along
    return Point(edge, other) if rng.random() < 0.5 else Point(other, edge)


def _paths_taken(pair, grid: Grid, radius: float):
    """Which of the frontier's two candidate paths the pops went down:
    (some cell was ``reach`` from every border, some cell was not)."""
    reach = grid.disk(radius).candidates.reach
    inner = [reach <= i < grid.n - reach and reach <= j < grid.n - reach
             for i, j in pair.visit_order]
    return any(inner), not all(inner)


@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    lazy=st.booleans(),
    event_rate=st.sampled_from([0.0, 2.0]),
    total_events=st.sampled_from([0, 40]),
    still=st.booleans(),
)
def test_border_cells_and_degenerate_stats_are_byte_identical(
    seed, family, lazy, event_rate, total_events, still
):
    """Expansions from border rows, columns and corners (the flat
    interior path and the bounds-filtered border path in one frontier),
    under the cost model's degenerate inputs: no event rate, an empty
    corpus statistic, a parked subscriber — Equation 6's limits."""
    rng = random.Random(seed)
    grid = Grid(rng.choice([25, 40]), SPACE)
    events = random_events(rng, SPACE, rng.randint(0, 60))
    expression = BooleanExpression([Predicate(f"a{rng.randint(0, 5)}", Operator.LE, 4)])
    points = [event.location for event in events if expression.matches(event.attributes)]
    radius = rng.choice([0.0, rng.uniform(50, 500), rng.uniform(500, 2000)])
    location = _border_location(rng, grid)
    velocity = Point(0.0, 0.0) if still else Point(rng.uniform(-40, 40), rng.uniform(-40, 40))
    stats = SystemStats(event_rate=event_rate, total_events=total_events)

    def build(strategy_cls):
        if lazy:
            tree = BEQTree(SPACE, emax=16)
            tree.insert_all(events)
            field = LazyBEQField(grid, tree, expression, radius)
        else:
            field = StaticMatchingField(grid, points, radius)
        request = ConstructionRequest(
            location=location, velocity=velocity, matching_field=field, stats=stats,
        )
        strategy = strategy_cls(max_cells=rng.choice([None, 90, 300]), record_visits=True)
        return strategy.construct(request), field

    scalar_cls, vector_cls = FAMILIES[family]
    state = rng.getstate()
    scalar_pair, scalar_field = build(scalar_cls)
    rng.setstate(state)  # the same cap on both sides
    vector_pair, vector_field = build(vector_cls)
    assert_pairs_identical(scalar_pair, vector_pair)
    assert scalar_field.events_scanned == vector_field.events_scanned
    if lazy:
        assert scalar_field.leaves_scanned == vector_field.leaves_scanned


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("corner", [(0.0, 0.0), (10_000.0, 0.0), (10_000.0, 10_000.0)])
def test_one_expansion_runs_the_interior_and_the_border_path(family, corner):
    """From a corner, with no event pressure, the frontier floods border
    and interior cells alike: both candidate paths in one expansion."""
    grid = Grid(40, SPACE)

    def request():
        return ConstructionRequest(
            location=Point(*corner), velocity=Point(0.0, 0.0),
            matching_field=StaticMatchingField(grid, [], 600.0),
            stats=SystemStats(event_rate=0.0, total_events=0),
        )

    scalar_cls, vector_cls = FAMILIES[family]
    scalar_pair = scalar_cls(max_cells=200, record_visits=True).construct(request())
    vector_pair = vector_cls(max_cells=200, record_visits=True).construct(request())
    assert_pairs_identical(scalar_pair, vector_pair)
    assert _paths_taken(vector_pair, grid, 600.0) == (True, True)
    assert scalar_pair.last_accepted_bm == 0.0  # Equation 6's f = 0 limit


@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    border=st.booleans(),
)
def test_covered_pops_skip_the_field_and_scan_identically(seed, family, border):
    """The coverage fast path: a pop whose neighbourhood the lazy field
    already covers never calls into it, and the tree work still lands on
    the scalar oracle's ``events_scanned`` / ``leaves_scanned``."""
    rng = random.Random(seed)
    grid = Grid(40, SPACE)
    events = random_events(rng, SPACE, rng.randint(20, 200))
    expression = BooleanExpression([Predicate(f"a{rng.randint(0, 5)}", Operator.LE, 3)])
    radius = rng.uniform(100, 1500)
    location = (
        _border_location(rng, grid) if border
        else Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
    )
    stats = SystemStats(event_rate=rng.uniform(0.0, 2.0), total_events=len(events))

    def build(strategy_cls):
        tree = BEQTree(SPACE, emax=16)
        tree.insert_all(events)
        field = LazyBEQField(grid, tree, expression, radius)
        calls = []
        ensure = field.ensure_cell_neighbourhood
        field.ensure_cell_neighbourhood = lambda cell: (calls.append(cell), ensure(cell))
        request = ConstructionRequest(
            location=location, velocity=Point(20.0, -5.0), matching_field=field, stats=stats,
        )
        pair = strategy_cls(max_cells=300, record_visits=True).construct(request)
        return pair, field, calls

    scalar_cls, vector_cls = FAMILIES[family]
    scalar_pair, scalar_field, _ = build(scalar_cls)
    vector_pair, vector_field, calls = build(vector_cls)
    assert_pairs_identical(scalar_pair, vector_pair)
    assert scalar_field.events_scanned == vector_field.events_scanned
    assert scalar_field.leaves_scanned == vector_field.leaves_scanned
    # at most the start cell's degenerate check plus one call per pop
    assert len(calls) <= vector_pair.cells_examined + 1


def test_a_large_expansion_calls_the_field_for_few_of_its_pops():
    """The fast path is taken, not merely allowed: most pops of a wide
    expansion over a lazy field land inside its covered window."""
    rng = random.Random(3)
    grid = Grid(40, SPACE)
    events = random_events(rng, SPACE, 150)
    tree = BEQTree(SPACE, emax=16)
    tree.insert_all(events)
    field = LazyBEQField(
        grid, tree, BooleanExpression([Predicate("a0", Operator.EQ, 99)]), 800.0
    )
    calls = []
    ensure = field.ensure_cell_neighbourhood
    field.ensure_cell_neighbourhood = lambda cell: (calls.append(cell), ensure(cell))
    pair = IGM(max_cells=400).construct(ConstructionRequest(
        location=Point(5_000.0, 5_000.0), velocity=Point(20.0, 0.0), matching_field=field,
        stats=SystemStats(event_rate=2.0, total_events=150),
    ))
    assert pair.cells_examined >= 400
    assert len(calls) < pair.cells_examined // 4


@DIFF_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(sorted(FAMILIES)))
def test_field_reuse_across_constructions_stays_identical(seed, family):
    """Repair-mode shape: one field serves several constructions.

    A field carries its own array projection;
    reusing the *same* field (and strategy instance) for a second
    construction from a different location must stay identical to the
    scalar oracle doing the same — this is the incremental ``_sync`` path.
    """
    rng = random.Random(seed)
    count = rng.randint(5, 60)
    points = [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(count)
    ]
    radius = rng.uniform(300, 2000)
    stats = SystemStats(event_rate=rng.uniform(0.5, 6), total_events=count)
    locations = [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(3)
    ]
    velocity = Point(rng.uniform(-40, 40), rng.uniform(-40, 40))

    scalar_cls, vector_cls = FAMILIES[family]
    scalar = scalar_cls(max_cells=150, record_visits=True)
    vector = vector_cls(max_cells=150, record_visits=True)
    scalar_field = StaticMatchingField(GRID, points, radius)
    vector_field = StaticMatchingField(GRID, points, radius)
    for location in locations:
        def request(field):
            return ConstructionRequest(
                location=location,
                velocity=velocity,
                matching_field=field,
                stats=stats,
            )
        assert_pairs_identical(
            scalar.construct(request(scalar_field)),
            vector.construct(request(vector_field)),
        )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lemma1_empty_region_degenerate_case(family):
    """Lemma 1's boundary: a subscriber standing inside an unsafe cell.

    The expansion must reject the start cell immediately — empty safe
    region, empty impact region, one cell examined — identically on both
    paths, with the rejected ``bm`` byte-equal (it is ``inf`` here:
    ``ts = 0`` against a positive ``ti``).
    """
    scalar_cls, vector_cls = FAMILIES[family]
    location = Point(5_000.0, 5_000.0)
    request_for = lambda: ConstructionRequest(  # noqa: E731 - two fresh fields
        location=location,
        velocity=Point(10.0, 0.0),
        matching_field=StaticMatchingField(GRID, [location], 1_000.0),  # event on top of us
        stats=SystemStats(event_rate=2.0, total_events=10),
    )
    scalar_pair = scalar_cls(record_visits=True).construct(request_for())
    vector_pair = vector_cls(record_visits=True).construct(request_for())
    assert scalar_pair.safe.is_empty() and vector_pair.safe.is_empty()
    assert scalar_pair.impact.is_empty() and vector_pair.impact.is_empty()
    assert_pairs_identical(scalar_pair, vector_pair)


@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    max_cells=st.sampled_from([None, 0, 1, 120]),
)
def test_unsafe_start_cell_over_a_lazy_field_is_the_scalar_single_pop(
    seed, family, max_cells
):
    """The array core decides an unsafe start cell before it builds
    any frontier state.  The result must be the scalar loop's single pop —
    every RegionPair field, the visit order, and the same covered-rectangle
    growth (``events_scanned`` / ``leaves_scanned``) — also with
    ``max_cells=0``, where the loop pops nothing at all."""
    rng = random.Random(seed)
    grid = Grid(40, SPACE)
    location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
    radius = rng.uniform(300, 2500)
    events = random_events(rng, SPACE, rng.randint(20, 200))
    expression = BooleanExpression([Predicate("a0", Operator.GE, 0)])
    # one matching event out of reach of a notification, within reach of
    # the subscriber's cell: the start cell is unsafe
    angle = rng.uniform(0, 6.283)
    near = Point(
        min(max(location.x + 0.5 * radius * np.cos(angle), 0.0), 10_000.0),
        min(max(location.y + 0.5 * radius * np.sin(angle), 0.0), 10_000.0),
    )
    events.append(Event(len(events), {"a0": 1}, near))
    velocity = Point(rng.uniform(-40, 40), rng.uniform(-40, 40))

    def build(strategy_cls):
        tree = BEQTree(SPACE, emax=16)
        tree.insert_all(events)
        field = LazyBEQField(grid, tree, expression, radius)
        request = ConstructionRequest(
            location=location,
            velocity=velocity,
            matching_field=field,
            stats=SystemStats(event_rate=2.0, total_events=len(events)),
        )
        strategy = strategy_cls(max_cells=max_cells, record_visits=True)
        return strategy.construct(request), field

    scalar_cls, vector_cls = FAMILIES[family]
    scalar_pair, scalar_field = build(scalar_cls)
    vector_pair, vector_field = build(vector_cls)
    assert scalar_pair.safe.is_empty()
    assert scalar_pair.cells_examined == (0 if max_cells == 0 else 1)
    assert_pairs_identical(scalar_pair, vector_pair)
    assert scalar_field.events_scanned == vector_field.events_scanned
    assert scalar_field.leaves_scanned == vector_field.leaves_scanned


@DIFF_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(sorted(FAMILIES)))
def test_array_view_sync_may_lag_behind_an_unsafe_start_cell(seed, family):
    """A start cell whose cover count is already nonzero is decided
    without syncing the points noted since (admissions only raise counts,
    and none of these constructions has an exclusion pending).  The lag
    must be invisible: after degenerate constructions interleaved with
    ``note_event`` calls, a move to another cell builds exactly what the
    scalar strategy builds over an identically fed field."""
    rng = random.Random(seed)
    grid = Grid(40, SPACE)
    radius = rng.uniform(400, 1500)
    expression = BooleanExpression([Predicate("a0", Operator.GE, 0)])
    home = Point(rng.uniform(2_000, 8_000), rng.uniform(2_000, 8_000))
    blocker = Point(home.x + 0.4 * radius, home.y)
    stats = SystemStats(event_rate=2.0, total_events=50)
    scalar_cls, vector_cls = FAMILIES[family]
    sides = []
    for strategy_cls in (scalar_cls, vector_cls):
        tree = BEQTree(SPACE, emax=16)
        tree.insert_all([Event(0, {"a0": 1}, blocker)])
        sides.append(
            (
                strategy_cls(max_cells=150, record_visits=True),
                LazyBEQField(grid, tree, expression, radius),
            )
        )

    def construct_both(location):
        pairs = [
            strategy.construct(
                ConstructionRequest(
                    location=location,
                    velocity=Point(15.0, -5.0),
                    matching_field=field,
                    stats=stats,
                )
            )
            for strategy, field in sides
        ]
        assert_pairs_identical(*pairs)
        for _, field in sides:
            assert field.events_scanned == sides[0][1].events_scanned
            assert field.leaves_scanned == sides[0][1].leaves_scanned
        return pairs[0]

    next_id = 1
    for _ in range(3):
        # degenerate at home: the first syncs (the bit is clear), the
        # later ones find it set and leave the noted points unsynced
        assert construct_both(home).safe.is_empty()
        # inside the box of the scanned leaves, where a field notes arrivals
        x_lo, y_lo, x_hi, y_hi = sides[1][1]._box
        for _ in range(rng.randint(1, 6)):
            point = Point(rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))
            for _, field in sides:
                field.note_event(next_id, point)
            next_id += 1
    _, vector_field = sides[1]
    assert vector_field._admitted_points  # the lag is real
    away = Point(
        min(max(home.x - 2.5 * radius, 100.0), 9_900.0),
        min(max(home.y + rng.uniform(-1_000, 1_000), 100.0), 9_900.0),
    )
    construct_both(away)
    assert not vector_field._admitted_points


@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    incremental_impact=st.booleans(),
    all_border=st.booleans(),
)
def test_candidate_offset_tables_with_and_without_interior_cells(
    seed, family, incremental_impact, all_border
):
    """The per-accepted-neighbour-set offset tables add ``i * n + j`` in
    one step for a cell at least ``reach`` from every border and keep the
    bounds filter elsewhere.  Both branches against the scalar oracle: a
    grid whose every cell is a border cell (``reach >= n / 2``) and one
    with an interior."""
    rng = random.Random(seed)
    grid = Grid(14 if all_border else 40, SPACE)
    radius = rng.uniform(4_600, 6_000) if all_border else rng.uniform(300, 1_800)
    reach = grid.disk(radius).candidates.reach
    assert (2 * reach >= grid.n) == all_border
    points = [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        for _ in range(rng.randint(0, 6 if all_border else 60))
    ]

    location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
    velocity = Point(rng.uniform(-40, 40), rng.uniform(-40, 40))
    stats = SystemStats(event_rate=rng.uniform(0.5, 8), total_events=200)

    def request():
        return ConstructionRequest(
            location=location,
            velocity=velocity,
            matching_field=StaticMatchingField(grid, points, radius),
            stats=stats,
        )

    kwargs = dict(
        max_cells=rng.choice([None, 60, 400]),
        incremental_impact=incremental_impact,
        record_visits=True,
    )
    scalar_cls, vector_cls = FAMILIES[family]
    scalar_pair = scalar_cls(**kwargs).construct(request())
    vector_pair = vector_cls(**kwargs).construct(request())
    assert_pairs_identical(scalar_pair, vector_pair)


@DIFF_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), key=st.integers(0, 255))
def test_strip_candidates_equal_the_mask_intersections(seed, key):
    """``StripCandidates[key]`` vs intersecting the strip masks of the set
    bits by hand, with the flat form ``off_i * n + off_j`` beside them."""
    rng = random.Random(seed)
    grid = Grid(rng.choice([14, 25, 40]), SPACE)
    radius = rng.choice([0.0, rng.uniform(1, 300), rng.uniform(300, 2500)])
    disk = grid.disk(radius)
    off_i, off_j = disk.arrays
    keep = np.ones(off_i.size, dtype=bool)
    for bit, direction in enumerate(RING):
        if key >> bit & 1:
            keep &= disk.masks[direction]
    got_i, got_j, got_flat = disk.candidates[key]
    assert got_i.tolist() == off_i[keep].tolist()
    assert got_j.tolist() == off_j[keep].tolist()
    assert got_flat.tolist() == (off_i[keep] * grid.n + off_j[keep]).tolist()
    assert list(RING) == list(disk.strips)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("radius", [0.0, 15_000.0])
def test_extreme_radii_degenerate_cases(family, radius):
    """Zero radius (events only poison their own cell) and a radius larger
    than the space diagonal (every event poisons everything)."""
    scalar_cls, vector_cls = FAMILIES[family]
    scalar_pair = scalar_cls(max_cells=200, record_visits=True).construct(
        static_request(11, radius=radius, event_count=12)
    )
    vector_pair = vector_cls(max_cells=200, record_visits=True).construct(
        static_request(11, radius=radius, event_count=12)
    )
    assert_pairs_identical(scalar_pair, vector_pair)


def test_empty_corpus_covers_space_identically():
    """No events: the uncapped expansion floods the whole grid on both
    paths, and the resulting 625-cell bitmaps cross the WAH array cutover."""
    scalar_pair = ScalarIGM(record_visits=True).construct(
        static_request(3, radius=500.0, event_count=0)
    )
    vector_pair = IGM(record_visits=True).construct(
        static_request(3, radius=500.0, event_count=0)
    )
    assert scalar_pair.safe.area_cells() == GRID.n * GRID.n
    assert_pairs_identical(scalar_pair, vector_pair)


# ----------------------------------------------------------------------
# Frontier tie-break order
# ----------------------------------------------------------------------
def test_tiebreak_visits_equal_score_cells_in_morton_order():
    """A subscriber at an exact cell centre with zero velocity makes the
    four edge-adjacent neighbours *exactly* tied (equal priority, equal
    distance) and the four corner neighbours a second tied group.  The
    deterministic tie-break must order each group by ascending Morton code
    — on both paths, in the same order."""
    grid = Grid(40, SPACE)
    center = grid.cell_center((10, 10))
    request_for = lambda: ConstructionRequest(  # noqa: E731
        location=center,
        velocity=Point(0.0, 0.0),
        matching_field=StaticMatchingField(grid, [], 500.0),
        stats=SystemStats(event_rate=2.0, total_events=100),
    )
    scalar_pair = ScalarIGM(max_cells=9, record_visits=True).construct(request_for())
    vector_pair = IGM(max_cells=9, record_visits=True).construct(
        request_for()
    )
    assert scalar_pair.visit_order == vector_pair.visit_order
    order = scalar_pair.visit_order
    assert order[0] == (10, 10)
    edges = [c for c in order if abs(c[0] - 10) + abs(c[1] - 10) == 1]
    corners = [c for c in order if abs(c[0] - 10) == 1 and abs(c[1] - 10) == 1]
    # Edge cells (distance cw/2) all pop before corner cells (distance
    # cw/sqrt(2)), each group in ascending Morton order.
    assert list(order[1:5]) == edges and list(order[5:9]) == corners
    assert edges == sorted(edges, key=lambda c: interleave(*c))
    assert corners == sorted(corners, key=lambda c: interleave(*c))


@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
)
def test_visit_order_is_independent_of_corpus_ordering(seed, family):
    """The tie-break regression property: the pop order is a function of
    the *request*, never of incidental iteration order.  Feeding the same
    corpus in a shuffled order (which permutes every internal dict/list the
    field builds) must reproduce the identical visit order on both paths."""
    rng = random.Random(seed)
    count = rng.randint(0, 60)
    points = [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(count)
    ]
    # A cell-centre location with zero velocity maximises exact score ties.
    location = GRID.cell_center((rng.randint(0, 24), rng.randint(0, 24)))
    radius = rng.uniform(200, 2000)
    stats = SystemStats(event_rate=2.0, total_events=max(1, count))
    shuffled = list(points)
    rng.shuffle(shuffled)

    def build(strategy_cls, corpus):
        request = ConstructionRequest(
            location=location,
            velocity=Point(0.0, 0.0),
            matching_field=StaticMatchingField(GRID, corpus, radius),
            stats=stats,
        )
        return strategy_cls(max_cells=80, record_visits=True).construct(request)

    scalar_cls, vector_cls = FAMILIES[family]
    reference = build(scalar_cls, points)
    assert build(scalar_cls, shuffled).visit_order == reference.visit_order
    assert build(vector_cls, points).visit_order == reference.visit_order
    assert build(vector_cls, shuffled).visit_order == reference.visit_order


# ----------------------------------------------------------------------
# Kernel differentials
# ----------------------------------------------------------------------
def dilate_points_through_the_array_path(grid, points, radius):
    """:func:`dilate_points` with its array cutover forced to 0, so even
    one point takes the array kernel."""
    saved = field_module._POINTS_ARRAY_CUTOVER
    field_module._POINTS_ARRAY_CUTOVER = 0
    try:
        return dilate_points(grid, points, radius)
    finally:
        field_module._POINTS_ARRAY_CUTOVER = saved


@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 40),
    near_edge=st.booleans(),
)
def test_dilate_points_array_path_equals_folded_dilate_point(seed, count, near_edge):
    """The array point-dilation kernel vs the scalar fold, point by point —
    including points hugging (and outside) the space boundary — forced
    through the array path and as the cell set ``dilate_points`` hands a
    repair to carve."""
    rng = random.Random(seed)
    grid = Grid(40, SPACE)
    if near_edge:
        points = [
            Point(rng.uniform(-200, 400), rng.uniform(-200, 10_200))
            for _ in range(count)
        ]
    else:
        points = [
            Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            for _ in range(count)
        ]
    radius = rng.choice([0.0, rng.uniform(1, 80), rng.uniform(200, 1500)])
    expected = set()
    for p in points:
        dilate_point(grid, p, radius, expected)
    assert dilate_points_through_the_array_path(grid, points, radius).tolist() == (
        codes_of_cells(expected).tolist()
    )
    # the codes a repair carves, through whichever path its footprint picks
    assert dilate_points(grid, points, radius).tolist() == codes_of_cells(expected).tolist()


@DIFF_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), out_of_bounds=st.booleans())
def test_grid_dilate_array_and_scalar_paths_agree(seed, out_of_bounds):
    """``Grid.dilate`` (a cell at a time) and ``Grid.dilate_codes`` (the
    array kernel over Morton codes) on the same in-bounds cell set.

    Out-of-bounds seed cells (legal input to ``dilate``: callers may
    dilate hypothetical cells) are clipped into the grid.
    """
    rng = random.Random(seed)
    grid = Grid(30, SPACE)
    lo, hi = (-5, 34) if out_of_bounds else (0, 29)
    cells = {
        (rng.randint(lo, hi), rng.randint(lo, hi))
        for _ in range(rng.randint(0, 50))
    }
    radius = rng.choice([0.0, rng.uniform(1, 400), rng.uniform(600, 2000)])
    dilated = grid.dilate(cells, radius)
    assert all(grid.in_bounds(cell) for cell in dilated)
    inside = {cell for cell in cells if grid.in_bounds(cell)}
    codes = grid.dilate_codes(codes_of_cells(inside), radius)
    assert codes.tolist() == codes_of_cells(grid.dilate(inside, radius)).tolist()


@pytest.mark.parametrize("kernel", ["scalar", "array"])
class TestDilationEdgeCases:
    """Satellite geometry cases, identical through both dilation kernels."""

    def _dilate(self, grid, point, radius, kernel):
        if kernel == "scalar":
            cells = set()
            dilate_point(grid, point, radius, cells)
            return cells
        return set(cells_of_codes(dilate_points_through_the_array_path(grid, [point], radius)))

    def test_radius_straddling_the_space_boundary(self, kernel):
        """A point one cell from the edge with a radius reaching past it:
        the dilation clips at the boundary, never wraps or throws."""
        grid = Grid(40, SPACE)  # 250-unit cells
        point = Point(125.0, 5_125.0)  # centre of cell (0, 20)
        cells = self._dilate(grid, point, 1_000.0, kernel)
        assert all(0 <= i < 40 and 0 <= j < 40 for i, j in cells)
        assert (0, 20) in cells
        assert min(i for i, _ in cells) == 0  # reached the wall...
        assert (0, 16) in cells and (0, 24) in cells  # ...and spread along it
        brute = {
            c
            for c in grid.all_cells()
            if grid.cell_rect(c).min_distance_to_point(point) <= 1_000.0
        }
        assert cells == brute

    def test_zero_radius_marks_only_touching_cells(self, kernel):
        grid = Grid(40, SPACE)
        inside = Point(5_125.0, 5_125.0)  # strictly inside cell (20, 20)
        assert self._dilate(grid, inside, 0.0, kernel) == {(20, 20)}
        on_edge = Point(5_000.0, 5_125.0)  # exactly on the x-edge 20|19
        assert self._dilate(grid, on_edge, 0.0, kernel) == {(19, 20), (20, 20)}

    def test_cell_exactly_on_the_dilation_circle_is_included(self, kernel):
        """Closed inclusion at distance == radius, to the last bit: the
        cell whose nearest edge is exactly ``radius`` away is in; shrink
        the radius by one ulp and it drops out."""
        grid = Grid(40, SPACE)
        point = grid.cell_center((10, 10))  # (2625, 2625); cell width 250
        exact = 625.0  # distance to the near edge of cells (13, 10)/(7, 10)
        at = self._dilate(grid, point, exact, kernel)
        assert {(13, 10), (7, 10), (10, 13), (10, 7)} <= at
        below = self._dilate(grid, point, float(np.nextafter(exact, 0.0)), kernel)
        assert not {(13, 10), (7, 10), (10, 13), (10, 7)} & below
        assert (12, 10) in below  # the next ring in survives


@DIFF_SETTINGS
@given(
    length=st.integers(0, 400),
    data=st.data(),
)
def test_wah_from_positions_array_is_word_identical(length, data):
    """The array WAH constructor vs the scalar one: same words, same
    round-trip — across empty bitmaps, full groups, dense and sparse."""
    if length == 0:
        positions = []
    else:
        positions = data.draw(
            st.lists(st.integers(0, length - 1), max_size=length * 2)
        )
    scalar = WAHBitmap.from_positions(positions, length)
    array = WAHBitmap.from_positions_array(
        np.array(positions, dtype=np.int64), length
    )
    assert scalar.words == array.words
    assert scalar == array
    assert array.positions() == sorted(set(positions))


def test_wah_from_positions_array_full_and_empty_runs():
    """Long all-ones and all-zero runs exercise the fill-word encoding."""
    length = 31 * 40 + 5
    full = list(range(length))
    assert (
        WAHBitmap.from_positions_array(np.array(full, dtype=np.int64), length)
        == WAHBitmap.from_positions(full, length)
    )
    empty = WAHBitmap.from_positions_array(np.array([], dtype=np.int64), length)
    assert empty == WAHBitmap.from_positions([], length)
    assert empty.positions() == []


def test_wah_from_positions_array_rejects_out_of_range():
    with pytest.raises(ValueError):
        WAHBitmap.from_positions_array(np.array([5], dtype=np.int64), 5)
    with pytest.raises(ValueError):
        WAHBitmap.from_positions_array(np.array([-1], dtype=np.int64), 5)


@DIFF_SETTINGS
@given(
    coords=st.lists(
        st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
        max_size=64,
    )
)
def test_interleave_array_matches_scalar(coords):
    i = np.array([c[0] for c in coords], dtype=np.int64)
    j = np.array([c[1] for c in coords], dtype=np.int64)
    expected = [interleave(a, b) for a, b in coords]
    assert interleave_array(i, j).tolist() == expected
