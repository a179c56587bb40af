"""Movement substrate: polyline walking, road network, synthetic and taxi
trajectory generators."""

from __future__ import annotations

import hashlib
import math
import statistics
import struct
import tracemalloc
from array import array

import pytest

from repro.geometry import Point, Rect
from repro.trajectories import (
    RoadNetwork,
    SyntheticTrajectoryGenerator,
    TaxiTrajectoryGenerator,
    Trajectory,
    walk_polyline,
)

SPACE = Rect(0, 0, 50_000, 50_000)


def points(trajectory):
    """Every position of ``trajectory``, as Points."""
    return [trajectory.position_at(t) for t in range(len(trajectory))]


def walked(waypoints, steps):
    """The trajectory of a walker starting at the first waypoint."""
    xs, ys = array("d", [waypoints[0].x]), array("d", [waypoints[0].y])
    walk_polyline(waypoints, steps, xs, ys)
    return Trajectory(xs, ys)


class TestTrajectory:
    def test_requires_positions(self):
        with pytest.raises(ValueError):
            Trajectory([], [])

    def test_coordinate_counts_must_agree(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], [0.0])

    def test_position_clamps_at_end(self):
        trajectory = Trajectory([0, 1], [0, 0])
        assert trajectory.position_at(5) == Point(1, 0)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0], [0]).position_at(-1)

    def test_velocity_finite_difference(self):
        trajectory = Trajectory([0, 3], [0, 4])
        assert trajectory.velocity_at(0) == Point(3, 4)
        assert trajectory.velocity_at(1) == Point(0, 0)  # parked at the end

    def test_average_speed(self):
        trajectory = Trajectory([0, 10, 20], [0, 0, 0])
        assert trajectory.average_speed() == 10.0


class TestWalkPolyline:
    def test_constant_steps_on_straight_line(self):
        trajectory = walked([Point(0, 0), Point(100, 0)], [10.0] * 5)
        assert len(trajectory) == 6
        assert trajectory.position_at(0) == Point(0, 0)
        for k, p in enumerate(points(trajectory)):
            assert p.x == pytest.approx(10.0 * k)

    def test_crosses_vertices(self):
        trajectory = walked([Point(0, 0), Point(10, 0), Point(10, 10)], [15.0])
        assert trajectory.position_at(1) == Point(10, 5)

    def test_parks_at_end(self):
        trajectory = walked([Point(0, 0), Point(10, 0)], [100.0, 100.0])
        assert trajectory.position_at(2) == Point(10, 0)
        assert trajectory.position_at(1) == Point(10, 0)

    def test_zero_steps_stay_put(self):
        trajectory = walked([Point(0, 0), Point(10, 0)], [0.0, 5.0])
        assert trajectory.position_at(1) == Point(0, 0)
        assert trajectory.position_at(2) == Point(5, 0)

    def test_empty_polyline_rejected(self):
        with pytest.raises(ValueError):
            walk_polyline([], [1.0], array("d"), array("d"))


class TestRoadNetwork:
    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            RoadNetwork(SPACE, grid_size=1)

    def test_nodes_in_space(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=1)
        for node in network.graph.nodes:
            assert SPACE.contains_point(network.position_of(node))

    def test_connected(self):
        import networkx as nx

        network = RoadNetwork(SPACE, grid_size=8, seed=1)
        assert nx.is_connected(network.graph)

    def test_route_endpoints(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=1)
        waypoints = network.route((0, 0), (7, 7))
        assert waypoints[0] == network.position_of((0, 0))
        assert waypoints[-1] == network.position_of((7, 7))

    def test_congestion_in_range(self):
        network = RoadNetwork(SPACE, grid_size=6, seed=2)
        for factor in network.congestion_along((0, 0), (5, 5)):
            assert 0.0 < factor <= 1.0

    def test_determinism(self):
        a = RoadNetwork(SPACE, grid_size=6, seed=3)
        b = RoadNetwork(SPACE, grid_size=6, seed=3)
        assert all(a.position_of(n) == b.position_of(n) for n in a.graph.nodes)


class TestSyntheticTrajectories:
    def test_length_and_bounds(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=4)
        generator = SyntheticTrajectoryGenerator(network, speed=60.0, seed=5)
        trajectory = generator.trajectory(0, 400)
        assert len(trajectory) == 400
        assert all(SPACE.contains_point(p) for p in points(trajectory))

    def test_constant_speed(self):
        """Brinkhoff-style walkers move at (almost) constant speed; only the
        occasional waypoint switch may shorten a step."""
        network = RoadNetwork(SPACE, grid_size=8, seed=4)
        generator = SyntheticTrajectoryGenerator(network, speed=60.0, seed=5)
        trajectory = generator.trajectory(1, 300)
        steps = [
            trajectory.position_at(k).distance_to(trajectory.position_at(k + 1))
            for k in range(len(trajectory) - 1)
        ]
        near_constant = sum(1 for s in steps if math.isclose(s, 60.0, rel_tol=0.05))
        assert near_constant > 0.9 * len(steps)

    def test_determinism(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=4)
        a = SyntheticTrajectoryGenerator(network, speed=60.0, seed=5).trajectory(3, 100)
        b = SyntheticTrajectoryGenerator(network, speed=60.0, seed=5).trajectory(3, 100)
        assert a == b

    def test_negative_speed_rejected(self):
        network = RoadNetwork(SPACE, grid_size=4, seed=4)
        with pytest.raises(ValueError):
            SyntheticTrajectoryGenerator(network, speed=-1.0)


class TestTaxiTrajectories:
    def test_variable_speed_and_stops(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=6)
        generator = TaxiTrajectoryGenerator(network, base_speed=60.0, seed=7)
        trajectory = generator.trajectory(0, 500)
        steps = [
            trajectory.position_at(k).distance_to(trajectory.position_at(k + 1))
            for k in range(len(trajectory) - 1)
        ]
        assert any(s == 0.0 for s in steps)  # stops exist
        moving = [s for s in steps if s > 0]
        assert statistics.pstdev(moving) > 5.0  # genuinely variable speed

    def test_slower_than_free_flow_on_average(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=6)
        generator = TaxiTrajectoryGenerator(network, base_speed=60.0, seed=7)
        trajectory = generator.trajectory(1, 400)
        assert trajectory.average_speed() < 60.0

    def test_bounds_and_determinism(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=6)
        a = TaxiTrajectoryGenerator(network, base_speed=60.0, seed=8).trajectory(2, 200)
        b = TaxiTrajectoryGenerator(network, base_speed=60.0, seed=8).trajectory(2, 200)
        assert a == b
        assert all(SPACE.contains_point(p) for p in points(a))

    def test_parameter_validation(self):
        network = RoadNetwork(SPACE, grid_size=4, seed=6)
        with pytest.raises(ValueError):
            TaxiTrajectoryGenerator(network, base_speed=-5.0)
        with pytest.raises(ValueError):
            TaxiTrajectoryGenerator(network, base_speed=5.0, stop_probability=1.0)


class TestSpeedSchedule:
    def test_scheduled_speed_respected(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=9)
        schedule = lambda t: 100.0 if t < 50 else 20.0
        generator = SyntheticTrajectoryGenerator(
            network, speed=60.0, seed=10, speed_schedule=schedule
        )
        trajectory = generator.trajectory(0, 120)
        fast_steps = [
            trajectory.position_at(k).distance_to(trajectory.position_at(k + 1))
            for k in range(0, 40)
        ]
        slow_steps = [
            trajectory.position_at(k).distance_to(trajectory.position_at(k + 1))
            for k in range(60, 110)
        ]
        assert statistics.mean(fast_steps) > statistics.mean(slow_steps)

    def test_zero_speed_schedule_parks_the_walker(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=9)
        generator = SyntheticTrajectoryGenerator(
            network, speed=60.0, seed=11, speed_schedule=lambda t: 0.0
        )
        trajectory = generator.trajectory(0, 50)
        assert trajectory.average_speed() == 0.0

    def test_negative_schedule_clamped(self):
        network = RoadNetwork(SPACE, grid_size=8, seed=9)
        generator = SyntheticTrajectoryGenerator(
            network, speed=60.0, seed=12, speed_schedule=lambda t: -5.0
        )
        trajectory = generator.trajectory(0, 30)
        assert trajectory.average_speed() == 0.0


def coordinates_digest(trajectories):
    """sha256 over every position's ``(x, y)`` as two little-endian doubles."""
    digest = hashlib.sha256()
    for trajectory in trajectories:
        for p in points(trajectory):
            digest.update(struct.pack("<2d", p.x, p.y))
    return digest.hexdigest()


class TestSubstrate:
    """The movement input every simulation reads: its bits and its bytes."""

    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("synthetic", "d27adf119db99dcfbffcb0a4fccc0a7668ceb8369f3895c7fd04ff94cf554161"),
            ("taxi", "6ac689f7d7000951ca284b4a1b30d29f3657f13fc9b537263b7c067c7063c9bd"),
        ],
    )
    def test_positions_are_pinned_bit_for_bit(self, kind, expected):
        """Three walkers x 500 timestamps per generator, digested when every
        timestamp still held its own Point: the float buffers must hold
        exactly the coordinates the Points held."""
        if kind == "synthetic":
            network = RoadNetwork(SPACE, grid_size=8, seed=4)
            generator = SyntheticTrajectoryGenerator(network, speed=60.0, seed=5)
        else:
            network = RoadNetwork(SPACE, grid_size=8, seed=6)
            generator = TaxiTrajectoryGenerator(network, base_speed=60.0, seed=7)
        assert coordinates_digest(generator.trajectories(3, 500)) == expected

    def test_a_timestamp_costs_two_floats(self):
        """20 walkers x 4,000 timestamps retain at most 20 bytes a
        timestamp (two float64s are 16); a Point per timestamp is ~160."""
        network = RoadNetwork(SPACE, grid_size=12, seed=2015)
        generator = SyntheticTrajectoryGenerator(network, speed=60.0, seed=1)
        count, timestamps = 20, 4_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trajectories = generator.trajectories(count, timestamps)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(len(t) for t in trajectories) == count * timestamps
        assert retained / (count * timestamps) <= 20.0
