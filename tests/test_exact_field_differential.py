"""The retained matching field is exact: an exclusion un-dilates it.

A :class:`~repro.core.field.LazyBEQField` that lives across constructions
(the server's repair mode) learns events by leaf scans and ``note_event``
and forgets them by ``note_exclusion(s)`` — a delivery, an expiry, a band
extraction.  Whatever the interleaving, its state must equal a fresh
field's over the events it still knows: the same cover counts (so the
same unsafe cells) at every radius, the same φ, and array views equal to
views projected afresh — the uint8 cover counts past 255 included.  What
it knows is checked by brute force too: no delivered, dead or unmatched
event, and every live undelivered match inside the covered rectangle.
Between operations the array core and the scalar oracle construct over
the field and must agree byte for byte.

Carries the ``differential`` marker; ``DIFFERENTIAL_EXAMPLES`` scales the
example budget like the other differential suites.
"""

from __future__ import annotations

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
OPERATIONS = ("publish", "cluster", "expire", "deliver", "cover", "construct", "compact")


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
        rebuilt = _FieldArrayView(field.grid, radius, fresh.known_points())
        rebuilt._sync()
        assert np.array_equal(true_cover(view), true_cover(rebuilt))
        assert view.overflow == rebuilt.overflow
        assert np.array_equal(view.counts, rebuilt.counts)
        scalar = np.zeros(n * n, dtype=np.int64)
        for (i, j), count in fresh._cover_at(radius).items():
            scalar[i * n + j] = count
        assert np.array_equal(true_cover(rebuilt), scalar)


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
            request = ConstructionRequest(
                location=anywhere(), velocity=Point(10.0, 5.0),
                radius=rng.choice(radii), grid=grid, matching_field=field, stats=stats,
            )
            core = IGM(max_cells=120, record_visits=True).construct(request)
            oracle = ScalarIGM(max_cells=120, record_visits=True).construct(request)
            assert_pairs_identical(oracle, core)
        else:
            field.known_points()  # compacts the forgotten slots
        assert_knows_exactly_the_live_matches(field, live, delivered)
        assert_equals_a_fresh_field(field, events, radii)
        assert field._holders == {event_id: {7} for event_id in field._position}
