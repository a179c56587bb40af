"""Definition 2 as a brute-force invariant: every installed impact region
covers the dilation of the safe region its subscriber holds — and no
standing round is spurious: an empty region is held only next to a live,
undelivered matching event.

:func:`repro.testing.impact_coverage_violations` enumerates the cells
within ``r`` of a held region itself, so these checks share no table
with the construction (``Grid.disk``, ``impact_from_safe``) they judge;
:func:`repro.testing.spurious_standing_rounds` reads only the corpus.
"""

from __future__ import annotations

import pytest

from repro.core import IGM, ImpactRegion
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect, cells_of_codes
from repro.index import BEQTree
from repro.system import ElapsServer, ExperimentConfig, ServerConfig, build_simulation
from repro.testing import impact_coverage_violations, spurious_standing_rounds

SPACE = Rect(0, 0, 10_000, 10_000)
STILL = Point(0, 0)


def sale(event_id, x, y):
    return Event(event_id, {"topic": "sale"}, Point(x, y), arrived_at=0)


def subscribed_server(location):
    server = ElapsServer(
        Grid(40, SPACE), IGM(max_cells=200), ServerConfig(initial_rate=1.0),
        event_index=BEQTree(SPACE, emax=32),
    )
    server.bootstrap([sale(1, 1_105, 2_010), sale(2, 7_000, 6_500)])
    expression = BooleanExpression([Predicate("topic", Operator.EQ, "sale")])
    server.subscribe(Subscription(1, expression, radius=900.0), location, STILL, 0)
    return server


class TestTheCheckSeesAShortfall:
    def test_a_region_with_a_cell_missing_is_reported(self):
        server = subscribed_server(Point(5_000, 5_000))
        record = server.subscribers[1]
        assert not record.safe.is_empty()
        assert impact_coverage_violations(server) == []
        _, codes = server.impact_index.region_of(1)
        dropped = min(record.safe.iter_cells())  # a held cell is within r of itself
        kept = set(cells_of_codes(codes)) - {dropped}
        server.impact_index.replace_region(1, ImpactRegion.of(server.grid, kept))
        assert impact_coverage_violations(server) == [(1, dropped)]

    def test_an_empty_region_is_checked_against_the_closed_disk(self):
        # 905 m from an undelivered match, 895 m from the cell's edge:
        # the start cell is unsafe (250 m cells, r = 900 m)
        server = subscribed_server(Point(2_010, 2_010))
        record = server.subscribers[1]
        assert record.safe.is_empty() and record.degenerate_cell is not None
        assert impact_coverage_violations(server) == []
        server.impact_index.replace_region(
            1, ImpactRegion.of(server.grid, [record.degenerate_cell])
        )
        violations = impact_coverage_violations(server)
        assert violations and all(sub_id == 1 for sub_id, _ in violations)
        assert record.degenerate_cell not in {cell for _, cell in violations}


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("strategy", ["VM", "GM", "iGM", "idGM"])
def test_a_seeded_drive_holds_definition2_after_every_timestamp(strategy, repair, shards):
    """Moving subscribers, arrivals and expiry through the figure runner;
    the standing check runs once a timestamp's reports and arrivals have
    settled, Definition 2 once its expiry has too."""
    config = ExperimentConfig(
        strategy=strategy, repair=repair, shards=shards, seed=11,
        subscribers=12, timestamps=60, grid_n=60, initial_events=1_500,
        event_rate=4.0, event_ttl=20, max_cells=400,
    )
    simulation = build_simulation(config)
    server = simulation.server
    expire = server.expire_due_events
    checked = []

    def expire_then_check(now):
        assert spurious_standing_rounds(server) == [], f"t={now}"
        result = expire(now)
        assert impact_coverage_violations(server) == [], f"t={now}"
        checked.append(now)
        return result

    server.expire_due_events = expire_then_check
    stats = simulation.run(config.timestamps).stats
    assert checked == list(range(1, config.timestamps + 1))
    assert stats.constructions > config.subscribers  # regions were rebuilt


class TestTheStandingCheck:
    def test_an_empty_region_next_to_an_undelivered_match_is_owed(self):
        server = subscribed_server(Point(2_010, 2_010))
        assert server.subscribers[1].safe.is_empty()
        assert spurious_standing_rounds(server) == []

    def test_an_empty_region_with_nothing_near_is_spurious(self):
        server = subscribed_server(Point(2_010, 2_010))
        record = server.subscribers[1]
        record.delivered.add(1)  # as if delivered, behind the field's back
        assert spurious_standing_rounds(server) == [(1, server.grid.cell_of(record.location))]
