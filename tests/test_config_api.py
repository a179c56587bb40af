"""The server API: ServerConfig and the Transport seam.

* :class:`ServerConfig` — frozen, validated, copy-with-changes, and the
  only way to set a knob: the constructor takes no per-knob keywords;
* :class:`CallbackTransport` is behaviourally equivalent to a hand-rolled
  :class:`Transport` subclass, including the ship_delta -> ship_region
  fallback.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import IGM, RepairBudget
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import CallbackTransport, ElapsServer, ServerConfig, Transport
from repro.system.server import RATE_WINDOW

SPACE = Rect(0, 0, 10_000, 10_000)


def make_server(config=None, **kwargs):
    return ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=400),
        config or ServerConfig(initial_rate=1.0),
        event_index=BEQTree(SPACE, emax=32),
        **kwargs,
    )


def make_sub(sub_id=1, radius=1_500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def sale(event_id, x, y):
    return Event(event_id, {"topic": "sale"}, Point(x, y))


# ----------------------------------------------------------------------
# ServerConfig
# ----------------------------------------------------------------------
class TestServerConfig:
    def test_defaults_round_trip_onto_the_server(self):
        """The server keeps its config and reads every knob from it: no
        attribute mirrors a field, so a knob has one name."""
        config = ServerConfig(
            matching_mode="full",
            initial_rate=3.0,
            use_impact_region=False,
            repair=True,
        )
        server = make_server(config)
        assert server.config is config
        assert server.system_stats(0).event_rate == 3.0
        for field in dataclasses.fields(ServerConfig):
            if field.name != "journal":  # server.journal is the opened Journal
                assert field.name not in vars(server), field.name
        # the two assignable test seams are constants, not config fields
        assert server.rate_window == RATE_WINDOW
        assert server.repair_budget == RepairBudget()

    def test_frozen(self):
        config = ServerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.repair = True

    def test_with_copies(self):
        base = ServerConfig(initial_rate=1.0)
        changed = base.with_(repair=True)
        assert changed.repair is True
        assert changed.initial_rate == 1.0
        assert base.repair is False  # original untouched

    def test_invalid_matching_mode_rejected(self):
        with pytest.raises(ValueError, match="psychic"):
            ServerConfig(matching_mode="psychic")


# ----------------------------------------------------------------------
# Per-knob keyword arguments are gone
# ----------------------------------------------------------------------
class TestLegacyKwargs:
    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="warp_speed"):
            ElapsServer(Grid(40, SPACE), IGM(max_cells=400), warp_speed=9)
        # a ServerConfig field is not a constructor keyword either
        with pytest.raises(TypeError, match="initial_rate"):
            ElapsServer(Grid(40, SPACE), IGM(max_cells=400), initial_rate=2.0)


# ----------------------------------------------------------------------
# Transport equivalence
# ----------------------------------------------------------------------
class RecordingTransport(Transport):
    """A hand-rolled Transport, the class-based migration target."""

    def __init__(self):
        self.regions = []
        self.deltas = []
        self.pings = []

    def ship_region(self, sub_id, region):
        self.regions.append((sub_id, frozenset(region.cells), region.complement))

    def ship_delta(self, sub_id, removed, region):
        self.deltas.append((sub_id, frozenset(removed)))

    def locate(self, sub_id):
        self.pings.append(sub_id)
        return Point(5_000, 5_000), Point(20, 0)


def drive(transport):
    """One fixed workload: subscribe, in-radius hit, out-of-radius hit."""
    server = make_server(
        ServerConfig(initial_rate=1.0, repair=True), transport=transport
    )
    server.subscribe(make_sub(), Point(5_000, 5_000), Point(20, 0), now=0)
    server.publish(sale(10, 5_400, 5_000), now=1)   # in radius: rebuild
    server.publish(sale(11, 7_600, 5_000), now=2)   # out of radius: repair
    return server


class TestTransportEquivalence:
    def test_callback_transport_matches_a_transport_subclass(self):
        subclass = RecordingTransport()
        drive(subclass)

        regions, deltas, pings = [], [], []
        callbacks = CallbackTransport(
            ship_region=lambda sub_id, region: regions.append(
                (sub_id, frozenset(region.cells), region.complement)
            ),
            ship_delta=lambda sub_id, removed, region: deltas.append(
                (sub_id, frozenset(removed))
            ),
            locate=lambda sub_id: (
                pings.append(sub_id) or (Point(5_000, 5_000), Point(20, 0))
            ),
        )
        drive(callbacks)

        assert regions == subclass.regions
        assert deltas == subclass.deltas
        assert pings == subclass.pings
        assert deltas  # the repair path actually produced a delta

    def test_missing_ship_delta_falls_back_to_a_full_push(self):
        regions = []
        transport = CallbackTransport(
            ship_region=lambda sub_id, region: regions.append(region),
            locate=lambda sub_id: (Point(5_000, 5_000), Point(20, 0)),
        )
        server = drive(transport)
        # the repair shipped through ship_region instead of vanishing
        assert len(regions) >= 2
        assert server.metrics.repairs >= 1

    def test_base_transport_is_a_usable_null_transport(self):
        server = drive(Transport())
        assert server.metrics.repairs >= 1  # workload ran; nothing crashed
