"""Brinkhoff-style synthetic trajectories: constant-speed network walkers.

The paper generates 10,000 synthetic trajectories of 1000 timestamps with
Brinkhoff's network-based generator; Section 6.2.2 notes their speed is
constant, in contrast with the taxi traces.  The walkers here route
between random road-network nodes along shortest paths and advance a
fixed ``speed`` metres per timestamp, picking a fresh destination on
arrival.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable, List, Optional

from .motion import Trajectory, walk_polyline
from .road import RoadNetwork


class SyntheticTrajectoryGenerator:
    """Constant-speed random-destination walkers on a road network.

    ``speed_schedule`` (timestamp -> metres per timestamp) makes the walker
    speed time-varying — the dynamic-``vs`` environment of Figure 10(b).
    Without it the speed is the Brinkhoff-style constant.
    """

    def __init__(
        self,
        network: RoadNetwork,
        speed: float,
        seed: int = 0,
        speed_schedule: Optional[Callable[[int], float]] = None,
    ) -> None:
        if speed < 0:
            raise ValueError(f"negative speed: {speed}")
        self.network = network
        self.speed = speed
        self.seed = seed
        self.speed_schedule = speed_schedule

    def _speed_at(self, timestamp: int) -> float:
        if self.speed_schedule is not None:
            return max(self.speed_schedule(timestamp), 0.0)
        return self.speed

    def trajectory(self, walker_id: int, timestamps: int) -> Trajectory:
        """One walker's trajectory over ``timestamps`` steps."""
        rng = random.Random(f"{self.seed}-walker-{walker_id}")
        node = self.network.random_node(rng)
        start = self.network.position_of(node)
        xs, ys = array("d", [start.x]), array("d", [start.y])
        while len(xs) < timestamps:
            destination = self.network.random_node(rng)
            if destination == node:
                continue
            waypoints = self.network.route(node, destination)
            # Travel the whole leg, then continue from the destination;
            # trim to the requested horizon at the end.
            leg_length = sum(
                waypoints[k].distance_to(waypoints[k + 1]) for k in range(len(waypoints) - 1)
            )
            steps: List[float] = []
            travelled = 0.0
            while travelled < leg_length and len(xs) + len(steps) < timestamps:
                step = self._speed_at(len(xs) + len(steps) - 1)
                if step <= 0.0:
                    steps.append(0.0)
                    continue
                steps.append(step)
                travelled += step
            if not steps:
                steps = [self._speed_at(len(xs) - 1)]
            walk_polyline(waypoints, steps, xs, ys)
            node = destination
        del xs[timestamps:], ys[timestamps:]
        return Trajectory(xs, ys)

    def trajectories(self, count: int, timestamps: int) -> List[Trajectory]:
        """One trajectory per walker id 0..count-1."""
        return [self.trajectory(i, timestamps) for i in range(count)]
