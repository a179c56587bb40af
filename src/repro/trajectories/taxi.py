"""Taxi-style trajectories: variable-speed, stop-and-go network walkers.

The paper's second trajectory corpus is GPS probes of Singapore taxis,
whose two distinguishing properties it calls out explicitly (Section
6.2.2): speeds vary with road traffic, and the moving behaviour is hard
to predict.  The simulator reproduces both:

* per-edge **congestion factors** scale the free-flow speed on every road
  segment, plus multiplicative per-step noise (traffic waves);
* taxis **dwell** at their destination (passenger pickup/drop-off) for a
  random number of timestamps, and occasionally stop mid-route (red
  lights, pickups), producing zero-speed stretches;
* destinations are random, so direction changes are frequent — the
  property that separates idGM's gains on synthetic vs taxi data.
"""

from __future__ import annotations

import random
from array import array
from typing import List

from .motion import Trajectory, walk_polyline
from .road import RoadNetwork


class TaxiTrajectoryGenerator:
    """Stochastic-speed walkers with stops, on a road network."""

    def __init__(
        self,
        network: RoadNetwork,
        base_speed: float,
        seed: int = 0,
        stop_probability: float = 0.05,
        max_dwell: int = 8,
    ) -> None:
        if base_speed < 0:
            raise ValueError(f"negative speed: {base_speed}")
        if not 0.0 <= stop_probability < 1.0:
            raise ValueError(f"stop probability must be in [0, 1): {stop_probability}")
        self.network = network
        self.base_speed = base_speed
        self.seed = seed
        self.stop_probability = stop_probability
        self.max_dwell = max_dwell

    def trajectory(self, taxi_id: int, timestamps: int) -> Trajectory:
        """One taxi's trajectory over ``timestamps`` steps."""
        rng = random.Random(f"{self.seed}-taxi-{taxi_id}")
        node = self.network.random_node(rng)
        start = self.network.position_of(node)
        xs, ys = array("d", [start.x]), array("d", [start.y])
        while len(xs) < timestamps:
            destination = self.network.random_node(rng)
            if destination == node:
                continue
            waypoints = self.network.route(node, destination)
            congestion = self.network.congestion_along(node, destination)
            mean_congestion = sum(congestion) / len(congestion) if congestion else 1.0
            leg_length = sum(
                waypoints[k].distance_to(waypoints[k + 1]) for k in range(len(waypoints) - 1)
            )
            # Per-step speeds: congested free-flow speed with traffic noise
            # and occasional full stops.
            steps: List[float] = []
            travelled = 0.0
            while travelled < leg_length and len(xs) + len(steps) < timestamps:
                if rng.random() < self.stop_probability:
                    steps.append(0.0)
                    continue
                speed = self.base_speed * mean_congestion * rng.uniform(0.5, 1.5)
                steps.append(speed)
                travelled += speed
            walk_polyline(waypoints, steps, xs, ys)
            # Dwell at the destination (passenger exchange): the last
            # coordinate pair, repeated.
            dwell = rng.randint(0, self.max_dwell)
            xs.extend([xs[-1]] * dwell)
            ys.extend([ys[-1]] * dwell)
            node = destination
        del xs[timestamps:], ys[timestamps:]
        return Trajectory(xs, ys)

    def trajectories(self, count: int, timestamps: int) -> List[Trajectory]:
        """One trajectory per taxi id 0..count-1."""
        return [self.trajectory(i, timestamps) for i in range(count)]
