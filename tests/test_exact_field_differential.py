"""The retained matching field is exact: an exclusion un-dilates it.

A :class:`~repro.core.field.LazyBEQField` that lives across constructions
(the server's repair mode) learns events by leaf scans and ``note_event``
and forgets them by ``note_exclusion(s)`` — a delivery, an expiry, a band
extraction.  A field serves one radius, so the same operations drive
one field per radius.  Whatever the interleaving, a field's state must
equal a fresh field's over the events it still knows: the same cover
counts (so the same unsafe cells), the same φ, and an array projection
equal to a dense one (a static field's, whose band is the whole grid) on
the rows of its band — the uint8 cover counts past 255 included.  What it
knows is checked by brute force too: no delivered, dead or unmatched
event, nothing outside the box of its scanned leaves, and every live
undelivered match inside the covered rectangle.  Between operations the
array core and the scalar oracle construct over each field and must
agree byte for byte.

A projection holds a band of grid rows that must contain every covered
row after a construct, regrow on whichever side coverage leaves it, and
never be read outside: the last is checked with bounds-checked stand-ins
for the flat views Algorithm 1 reads, since a memoryview wraps a
negative index silently.

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
from repro.core.field import LazyBEQField, MatchingEventField, StaticMatchingField
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


def true_cover(field):
    """The projection's cover counts with the overflowed cells resolved."""
    cover = field.cover.astype(np.int64).reshape(-1)
    for cell, count in field.overflow.items():
        cover[cell] = count
    return cover


def assert_equals_a_fresh_field(field, events):
    """Cover counts, φ and the array projection equal a fresh field's
    over the events ``field`` still knows."""
    fresh = LazyBEQField(field.grid, BEQTree(SPACE), EXPRESSION, field.radius)
    for event_id in sorted(field._position):
        fresh._admit(event_id, events[event_id].location)
    if field._counts is not None:  # counted since the first φ question
        phi = {}
        for point in fresh.known_points():
            cell = field.grid.cell_of(point)
            phi[cell] = phi.get(cell, 0) + 1
        assert field._counts == phi
    assert field._cover_at() == fresh._cover_at()
    if field.cover is None:  # never projected
        return
    n = field.grid.n
    field._sync()
    # a fresh dense projection, restricted to the field's band of rows
    dense = StaticMatchingField(field.grid, fresh.known_points(), field.radius)
    dense.flat_views()
    dense._sync()
    first, size = field.base, field.cover.size
    band = slice(field.row0, field.row0 + field.cover.shape[0])
    assert np.array_equal(true_cover(field), true_cover(dense)[first : first + size])
    assert field.overflow == {
        cell - first: count
        for cell, count in dense.overflow.items()
        if first <= cell < first + size
    }
    assert np.array_equal(field.counts, dense.counts[band])
    scalar = np.zeros(n * n, dtype=np.int64)
    for (i, j), count in fresh._cover_at().items():
        scalar[i * n + j] = count
    assert np.array_equal(true_cover(dense), scalar)


def assert_the_band_holds_the_covered_rows(field):
    """After a construct, the field's band contains every row of the
    covered rectangle."""
    i_min, _, i_max, _ = field._covered
    assert field.row0 <= i_min and i_max < field.row0 + field.cover.shape[0]


def assert_knows_exactly_the_live_matches(field, tree_events, delivered):
    """Brute force over the corpus: the field's known events are live,
    undelivered matches inside the box of its scanned leaves, the box
    holds the covered rectangle, and the field knows every such event in
    that rectangle."""
    grid = field.grid
    x_lo, y_lo, x_hi, y_hi = field._box
    for event_id in field._position:
        event = tree_events.get(event_id)
        assert event is not None and event_id not in delivered
        assert EXPRESSION.matches(event.attributes)
        assert x_lo <= event.location.x <= x_hi and y_lo <= event.location.y <= y_hi
    if field._covered is None:
        return
    i_min, j_min, i_max, j_max = field._covered
    low, high = grid.cell_rect((i_min, j_min)), grid.cell_rect((i_max, j_max))
    assert x_lo <= low.x_min and y_lo <= low.y_min
    assert high.x_max <= x_hi and high.y_max <= y_hi
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
    # one field per radius, each with its owner in one shared holders map
    holders = {}
    fields = [
        LazyBEQField(
            grid, tree, EXPRESSION, radius, excluded_ids=delivered, holders=holders,
            owner=owner,
        )
        for owner, radius in enumerate(radii)
    ]
    if eager_compaction:
        for field in fields:
            field.COMPACT_MIN = 0
    stats = SystemStats(event_rate=2.0, total_events=100)

    def matched_known():
        return sorted({e for field in fields for e in field._position if e in live})

    def construct_at(field, location):
        request = ConstructionRequest(
            location=location, velocity=Point(10.0, 5.0), matching_field=field, stats=stats,
        )
        core = IGM(max_cells=120, record_visits=True).construct(request)
        assert_the_band_holds_the_covered_rows(field)
        oracle = ScalarIGM(max_cells=120, record_visits=True).construct(request)
        assert_pairs_identical(oracle, core)

    def note(event):
        for field in fields:
            field.note_event(event.event_id, event.location)

    for operation in operations:
        if operation == "publish":
            event = new_event(anywhere())
            if EXPRESSION.matches(event.attributes):
                note(event)
        elif operation == "cluster":
            # a dense burst: cover counts past 255 at the smaller radius
            centre = anywhere()
            for _ in range(rng.randint(150, 300)):
                note(new_event(Point(
                    min(max(centre.x + rng.gauss(0, 60), 0.0), 9_999.0),
                    min(max(centre.y + rng.gauss(0, 60), 0.0), 9_999.0),
                ), a0=0))
        elif operation == "expire":
            doomed = rng.sample(sorted(live), min(len(live), rng.randint(1, 120)))
            for event_id in doomed:
                tree.delete(live.pop(event_id))
            for field in fields:
                field.note_exclusions(doomed)
        elif operation == "deliver":
            known = matched_known()
            for event_id in rng.sample(known, min(len(known), rng.randint(1, 3))):
                delivered.add(event_id)
                for field in fields:
                    field.note_exclusion(event_id)
        elif operation == "cover":
            cell = (rng.randrange(grid.n), rng.randrange(grid.n))
            rng.choice(fields).ensure_cell_neighbourhood(cell)
        elif operation == "construct":
            construct_at(rng.choice(fields), anywhere())
        elif operation == "walk":
            # coverage swept along i, towards the grid's first or last
            # row: the band regrows on the side it is walked towards
            x, y = rng.uniform(0, 10_000), rng.uniform(0, 10_000)
            step = rng.choice((-1, 1)) * rng.uniform(600, 1_500)
            field = rng.choice(fields)
            for _ in range(rng.randint(2, 5)):
                construct_at(field, Point(min(max(x, 0.0), 9_999.0), y))
                x += step
        else:
            for field in fields:
                field.known_points()  # compacts the forgotten slots
        for field in fields:
            assert_knows_exactly_the_live_matches(field, live, delivered)
            assert_equals_a_fresh_field(field, events)
        assert holders == {
            event_id: {owner for owner, field in enumerate(fields) if event_id in field._position}
            for event_id in set().union(*(field._position for field in fields))
        }


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
    reads; yields the ``(field, [cover, counts, counts array])`` handed
    out, in order."""
    handed = []
    flat_views = MatchingEventField.flat_views

    def checked(field):
        base, *flats = flat_views(field)
        reads = [BandReads(flat) for flat in flats]
        handed.append((field, reads))
        return (base, *reads)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MatchingEventField, "flat_views", checked)
        yield handed


def twin_fields(seed, radius, n=30, count=80):
    """An ``n x n`` grid and two lazy fields at ``radius`` over one
    seeded corpus."""
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
    return grid, [LazyBEQField(grid, tree, EXPRESSION, radius) for _ in range(2)]


def construct_twins(fields, location, max_cells=40):
    """The array core over ``fields[1]``, the scalar oracle over
    ``fields[0]``: byte-identical pairs, scans and leaf counts."""
    stats = SystemStats(event_rate=2.0, total_events=100)
    pairs = [
        strategy(max_cells=max_cells, record_visits=True).construct(
            ConstructionRequest(
                location=location, velocity=Point(10.0, 5.0), matching_field=field, stats=stats,
            )
        )
        for strategy, field in zip((ScalarIGM, IGM), fields)
    ]
    assert_pairs_identical(*pairs)
    assert fields[0].events_scanned == fields[1].events_scanned
    assert fields[0].leaves_scanned == fields[1].leaves_scanned
    assert_the_band_holds_the_covered_rows(fields[1])
    return pairs[1]


@DIFF_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), upwards_first=st.booleans())
def test_a_walk_regrows_the_band_on_both_sides(seed, upwards_first):
    """A retained field walked from the middle of the grid to one border
    and then to the other: its band grows past its first row and past its
    last, and every construct on the way equals the scalar oracle's.  On
    a grid fine enough that one construct covers a fifth of its rows."""
    rng = random.Random(seed)
    radius = rng.uniform(300, 900)
    grid, fields = twin_fields(seed, radius, n=80)
    y = rng.uniform(1_000, 9_000)
    sweeps = [range(5_000, 10_000, 700), range(9_900, 0, -700)]
    if not upwards_first:
        sweeps = [range(5_000, 0, -700), range(100, 10_000, 700)]
    bands = []
    for sweep in sweeps:
        for x in sweep:
            construct_twins(fields, Point(float(x), y))
            bands.append((fields[1].row0, fields[1].row0 + fields[1].cover.shape[0]))
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
    rng = random.Random(seed)
    radius = rng.uniform(300, 1_500)
    _, fields = twin_fields(seed, radius)
    low, high = Point(1.0, 1.0), Point(9_999.0, 9_999.0)
    locations = [low, high] + [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(4)
    ]
    rng.shuffle(locations)
    with reads_checked_against_the_band() as handed:
        for location in locations:
            if not retained:
                _, fields = twin_fields(seed, radius)
            first = len(handed)
            construct_twins(fields, location, max_cells=rng.choice([1, 40]))
            covers = [reads[0] for _, reads in handed[first:]]
            if location == low:  # cell (0, 0): the first pop, and safe
                assert any(cover.lowest == 0 for cover in covers)
            elif location == high:
                assert any(cover.highest == len(cover.flat) - 1 for cover in covers)
