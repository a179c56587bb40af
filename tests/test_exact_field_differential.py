"""The retained matching field is exact: an exclusion un-dilates it.

A :class:`~repro.core.field.LazyBEQField` that lives across constructions
(the server's repair mode) learns events by leaf scans and ``note_event``
and forgets them by ``note_exclusion(s)`` — a delivery, an expiry, a band
extraction.  Whatever the interleaving, its state must equal a fresh
field's over the events it still knows: the same cover counts (so the
same unsafe cells) at every radius, the same φ, and array views equal to
a dense view projected afresh, on the rows of their band — the uint8
cover counts past 255 included.  What it knows is checked by brute force
too: no delivered, dead or unmatched event, and every live undelivered
match inside the covered rectangle.  Between operations the array core
and the scalar oracle construct over the field and must agree byte for
byte.

A view holds a band of grid rows that must contain every covered row
after a construct, regrow on whichever side coverage leaves it, and never
be read outside: the last is checked with bounds-checked stand-ins for
the flat views Algorithm 1 reads, since a memoryview wraps a negative
index silently.

Carries the ``differential`` marker; ``DIFFERENTIAL_EXAMPLES`` scales the
example budget like the other differential suites.
"""

from __future__ import annotations

import contextlib
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IGM
from repro.core.construction import ConstructionRequest
from repro.core.cost_model import SystemStats
from repro.core.field import LazyBEQField
from repro.core.igm import _FieldArrayView
from repro.expressions import BooleanExpression, Event, Operator, Predicate
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.testing import ScalarIGM

from test_vectorized_differential import assert_pairs_identical

pytestmark = pytest.mark.differential

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "25"))
DIFF_SETTINGS = settings(max_examples=EXAMPLES, deadline=None)

SPACE = Rect(0.0, 0.0, 10_000.0, 10_000.0)
EXPRESSION = BooleanExpression([Predicate("a0", Operator.LE, 2)])
OPERATIONS = (
    "publish", "cluster", "expire", "deliver", "cover", "construct", "walk", "compact",
)


def true_cover(view):
    """The view's cover counts with the overflowed cells resolved."""
    cover = view.cover.astype(np.int64).reshape(-1)
    for cell, count in view.overflow.items():
        cover[cell] = count
    return cover


def assert_equals_a_fresh_field(field, events, radii):
    """Cover counts, φ and array views equal a fresh field's over the
    events ``field`` still knows."""
    fresh = LazyBEQField(field.grid, BEQTree(SPACE), EXPRESSION)
    for event_id in sorted(field._position):
        fresh.note_event(event_id, events[event_id].location)
    if field._counts is not None:  # counted since the first φ question
        phi = {}
        for point in fresh.known_points():
            cell = field.grid.cell_of(point)
            phi[cell] = phi.get(cell, 0) + 1
        assert field._counts == phi
    for radius in radii:
        assert field._cover_at(radius) == fresh._cover_at(radius)
    n = field.grid.n
    for radius, view in field.array_views.items():
        view._sync()
        # a fresh dense projection, restricted to the view's band of rows
        dense = _FieldArrayView(field.grid, radius, fresh.known_points())
        dense._sync()
        first, size = view.base, view.cover.size
        band = slice(view.row0, view.row0 + view.cover.shape[0])
        assert np.array_equal(true_cover(view), true_cover(dense)[first : first + size])
        assert view.overflow == {
            cell - first: count
            for cell, count in dense.overflow.items()
            if first <= cell < first + size
        }
        assert np.array_equal(view.counts, dense.counts[band])
        scalar = np.zeros(n * n, dtype=np.int64)
        for (i, j), count in fresh._cover_at(radius).items():
            scalar[i * n + j] = count
        assert np.array_equal(true_cover(dense), scalar)


def assert_the_band_holds_the_covered_rows(field, radius):
    """After a construct at ``radius``, its view's band contains every row
    of the covered rectangle.  (A view at another radius catches up when
    it is next asked about a cell.)"""
    view = field.array_views[radius]
    i_min, _, i_max, _ = field._covered
    assert view.row0 <= i_min and i_max < view.row0 + view.cover.shape[0]


def assert_knows_exactly_the_live_matches(field, tree_events, delivered):
    """Brute force over the corpus: the field's known events are live,
    undelivered matches, and it knows every such event in its covered
    rectangle."""
    grid = field.grid
    for event_id in field._position:
        event = tree_events.get(event_id)
        assert event is not None and event_id not in delivered
        assert EXPRESSION.matches(event.attributes)
    if field._covered is None:
        return
    i_min, j_min, i_max, j_max = field._covered
    for event_id, event in tree_events.items():
        i, j = grid.cell_of(event.location)
        if (
            i_min <= i <= i_max and j_min <= j <= j_max
            and event_id not in delivered and EXPRESSION.matches(event.attributes)
        ):
            assert event_id in field._position


@DIFF_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    operations=st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=30),
    eager_compaction=st.booleans(),
)
def test_any_interleaving_leaves_the_field_equal_to_a_fresh_one(
    seed, operations, eager_compaction
):
    rng = random.Random(seed)
    grid = Grid(30, SPACE)
    tree = BEQTree(SPACE, emax=8)
    radii = sorted({rng.uniform(300, 1_500), rng.uniform(300, 1_500)})
    events = {}
    live = {}  # in the tree
    delivered = set()
    next_id = 0

    def new_event(location, a0=None):
        nonlocal next_id
        event = Event(next_id, {"a0": rng.randint(0, 4) if a0 is None else a0}, location)
        next_id += 1
        events[event.event_id] = live[event.event_id] = event
        tree.insert(event)
        return event

    def anywhere():
        return Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))

    for _ in range(60):
        new_event(anywhere())
    field = LazyBEQField(
        grid, tree, EXPRESSION, excluded_ids=delivered, holders={}, owner=7
    )
    if eager_compaction:
        field.COMPACT_MIN = 0
    stats = SystemStats(event_rate=2.0, total_events=100)

    def matched_known():
        return [e for e in field._position if e in live]

    def construct_at(location, radius):
        request = ConstructionRequest(
            location=location, velocity=Point(10.0, 5.0),
            radius=radius, grid=grid, matching_field=field, stats=stats,
        )
        core = IGM(max_cells=120, record_visits=True).construct(request)
        assert_the_band_holds_the_covered_rows(field, radius)
        oracle = ScalarIGM(max_cells=120, record_visits=True).construct(request)
        assert_pairs_identical(oracle, core)

    for operation in operations:
        if operation == "publish":
            event = new_event(anywhere())
            if EXPRESSION.matches(event.attributes):
                field.note_event(event.event_id, event.location)
        elif operation == "cluster":
            # a dense burst: cover counts past 255 at the smaller radius
            centre = anywhere()
            for _ in range(rng.randint(150, 300)):
                event = new_event(Point(
                    min(max(centre.x + rng.gauss(0, 60), 0.0), 9_999.0),
                    min(max(centre.y + rng.gauss(0, 60), 0.0), 9_999.0),
                ), a0=0)
                field.note_event(event.event_id, event.location)
        elif operation == "expire":
            doomed = rng.sample(sorted(live), min(len(live), rng.randint(1, 120)))
            for event_id in doomed:
                tree.delete(live.pop(event_id))
            field.note_exclusions(doomed)
        elif operation == "deliver":
            known = matched_known()
            for event_id in rng.sample(known, min(len(known), rng.randint(1, 3))):
                delivered.add(event_id)
                field.note_exclusion(event_id)
        elif operation == "cover":
            cell = (rng.randrange(grid.n), rng.randrange(grid.n))
            field.ensure_cell_neighbourhood(cell, rng.choice(radii))
        elif operation == "construct":
            construct_at(anywhere(), rng.choice(radii))
        elif operation == "walk":
            # coverage swept along i, towards the grid's first or last
            # row: the bands regrow on the side they are walked towards
            x, y = rng.uniform(0, 10_000), rng.uniform(0, 10_000)
            step = rng.choice((-1, 1)) * rng.uniform(600, 1_500)
            radius = rng.choice(radii)
            for _ in range(rng.randint(2, 5)):
                construct_at(Point(min(max(x, 0.0), 9_999.0), y), radius)
                x += step
        else:
            field.known_points()  # compacts the forgotten slots
        assert_knows_exactly_the_live_matches(field, live, delivered)
        assert_equals_a_fresh_field(field, events, radii)
        assert field._holders == {event_id: {7} for event_id in field._position}


class BandReads:
    """A flat view of a band that fails any read outside it — a
    memoryview or a numpy index array wraps a negative index silently —
    and keeps the lowest and highest index read."""

    def __init__(self, flat):
        self.flat = flat
        self.lowest = self.highest = None

    def __getitem__(self, index):
        if isinstance(index, int):
            lo = hi = index
        elif index.size:
            lo, hi = int(index.min()), int(index.max())
        else:
            return self.flat[index]
        assert 0 <= lo and hi < len(self.flat), (
            f"read {lo}..{hi} outside a band of {len(self.flat)} cells"
        )
        self.lowest = lo if self.lowest is None else min(self.lowest, lo)
        self.highest = hi if self.highest is None else max(self.highest, hi)
        return self.flat[index]


@contextlib.contextmanager
def reads_checked_against_the_band():
    """Hand Algorithm 1 :class:`BandReads` in place of the band views it
    reads; yields the ``(view, [cover, counts, counts array])`` handed
    out, in order."""
    handed = []
    flat_views = _FieldArrayView.flat_views

    def checked(view):
        base, *flats = flat_views(view)
        reads = [BandReads(flat) for flat in flats]
        handed.append((view, reads))
        return (base, *reads)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_FieldArrayView, "flat_views", checked)
        yield handed


def twin_fields(seed, n=30, count=80):
    """An ``n x n`` grid and two lazy fields over one seeded corpus."""
    rng = random.Random(seed)
    tree = BEQTree(SPACE, emax=8)
    corners = (Point(0.0, 0.0), Point(10_000.0, 10_000.0))
    event_id = 0
    while event_id < count:
        location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        # none within 2 km of the two corners: a cell there is safe at
        # any radius the tests draw
        if min(location.distance_to(corner) for corner in corners) > 2_000:
            tree.insert(Event(event_id, {"a0": rng.randint(0, 4)}, location))
            event_id += 1
    grid = Grid(n, SPACE)
    return grid, [LazyBEQField(grid, tree, EXPRESSION) for _ in range(2)]


def construct_twins(grid, fields, location, radius, max_cells=40):
    """The array core over ``fields[1]``, the scalar oracle over
    ``fields[0]``: byte-identical pairs, scans and leaf counts."""
    stats = SystemStats(event_rate=2.0, total_events=100)
    pairs = [
        strategy(max_cells=max_cells, record_visits=True).construct(
            ConstructionRequest(
                location=location, velocity=Point(10.0, 5.0), radius=radius,
                grid=grid, matching_field=field, stats=stats,
            )
        )
        for strategy, field in zip((ScalarIGM, IGM), fields)
    ]
    assert_pairs_identical(*pairs)
    assert fields[0].events_scanned == fields[1].events_scanned
    assert fields[0].leaves_scanned == fields[1].leaves_scanned
    assert_the_band_holds_the_covered_rows(fields[1], radius)
    return pairs[1]


@DIFF_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), upwards_first=st.booleans())
def test_a_walk_regrows_the_band_on_both_sides(seed, upwards_first):
    """A retained field walked from the middle of the grid to one border
    and then to the other: its band grows past its first row and past its
    last, and every construct on the way equals the scalar oracle's.  On
    a grid fine enough that one construct covers a fifth of its rows."""
    grid, fields = twin_fields(seed, n=80)
    rng = random.Random(seed)
    radius = rng.uniform(300, 900)
    y = rng.uniform(1_000, 9_000)
    sweeps = [range(5_000, 10_000, 700), range(9_900, 0, -700)]
    if not upwards_first:
        sweeps = [range(5_000, 0, -700), range(100, 10_000, 700)]
    bands = []
    for sweep in sweeps:
        for x in sweep:
            construct_twins(grid, fields, Point(float(x), y), radius)
            view = fields[1].array_views[radius]
            bands.append((view.row0, view.row0 + view.cover.shape[0]))
    lowered = any(b[0] < a[0] for a, b in zip(bands, bands[1:]))
    raised = any(b[1] > a[1] for a, b in zip(bands, bands[1:]))
    assert lowered and raised
    assert bands[-1] == (0, grid.n)  # the walk covered every row
    assert fields[1].view_regrowths >= 2


@DIFF_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), retained=st.booleans())
def test_no_read_lands_outside_the_band(seed, retained):
    """Every read Algorithm 1 makes of a band — the scalar ``cover`` and
    ``counts`` reads and the index-array ``counts`` sums — lies inside
    it, and a construct at either corner of the grid reads the band's
    first or last index: a ``base`` off by one cell or one row reads
    outside the band there (and, inside a band with slack, a neighbour
    of the right cell, which the scalar oracle catches)."""
    grid, fields = twin_fields(seed)
    rng = random.Random(seed)
    radius = rng.uniform(300, 1_500)
    low, high = Point(1.0, 1.0), Point(9_999.0, 9_999.0)
    locations = [low, high] + [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(4)
    ]
    rng.shuffle(locations)
    with reads_checked_against_the_band() as handed:
        for location in locations:
            if not retained:
                grid, fields = twin_fields(seed)
            first = len(handed)
            construct_twins(grid, fields, location, radius, max_cells=rng.choice([1, 40]))
            covers = [reads[0] for _, reads in handed[first:]]
            if location == low:  # cell (0, 0): the first pop, and safe
                assert any(cover.lowest == 0 for cover in covers)
            elif location == high:
                assert any(cover.highest == len(cover.flat) - 1 for cover in covers)
