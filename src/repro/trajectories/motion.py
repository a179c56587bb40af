"""Trajectories: one position per timestamp.

The paper samples GPS positions every timestamp (5 seconds) over 1000
timestamps.  A trajectory here is exactly that: one position per
timestamp, with finite-difference velocities (metres per timestamp).

The positions live in two contiguous float64 buffers, ``xs`` and ``ys``
(16 bytes a timestamp); a :class:`Point` is built only when a caller asks
for a position or a velocity.  A ``Point`` per timestamp would cost about
160 bytes, ten times the coordinates it holds.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..geometry import Point


@dataclass(frozen=True)
class Trajectory:
    """An immutable per-timestamp position sequence: ``(xs[t], ys[t])`` is
    the position at timestamp ``t``.

    Any float iterables are accepted and copied into exact-size
    ``array('d')`` buffers, which callers must not mutate.
    """

    xs: Iterable[float]
    ys: Iterable[float]

    def __post_init__(self) -> None:
        xs = array("d", self.xs)
        ys = array("d", self.ys)
        if len(xs) != len(ys):
            raise ValueError(f"{len(xs)} x coordinates but {len(ys)} y coordinates")
        if not xs:
            raise ValueError("a trajectory needs at least one position")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    def _clamped(self, timestamp: int) -> int:
        if timestamp < 0:
            raise ValueError(f"negative timestamp: {timestamp}")
        return min(timestamp, len(self.xs) - 1)

    def position_at(self, timestamp: int) -> Point:
        """Position at ``timestamp``; parked at the end once finished."""
        t = self._clamped(timestamp)
        return Point(self.xs[t], self.ys[t])

    def velocity_at(self, timestamp: int) -> Point:
        """Velocity (m/tm) over the step starting at ``timestamp``."""
        here = self._clamped(timestamp)
        following = self._clamped(timestamp + 1)
        xs, ys = self.xs, self.ys
        return Point(xs[following] - xs[here], ys[following] - ys[here])

    def average_speed(self) -> float:
        """Mean per-step displacement in metres per timestamp."""
        xs, ys = self.xs, self.ys
        if len(xs) < 2:
            return 0.0
        total = sum(
            math.hypot(xs[i] - xs[i + 1], ys[i] - ys[i + 1]) for i in range(len(xs) - 1)
        )
        return total / (len(xs) - 1)


def walk_polyline(
    waypoints: Sequence[Point], step_lengths: Sequence[float], xs: array, ys: array
) -> None:
    """Walk a polyline at the given per-step travel distances.

    The walker starts at the first waypoint and appends one position per
    step (``len(step_lengths)`` coordinate pairs) to ``xs`` / ``ys``.  When
    the polyline is exhausted the walker parks at its end.
    """
    if not waypoints:
        raise ValueError("empty polyline")
    segment = 0
    offset = 0.0  # distance already travelled along the current segment
    for step in step_lengths:
        remaining = step
        while remaining > 0 and segment < len(waypoints) - 1:
            seg_start, seg_end = waypoints[segment], waypoints[segment + 1]
            seg_len = seg_start.distance_to(seg_end)
            available = seg_len - offset
            if remaining < available:
                offset += remaining
                remaining = 0.0
            else:
                remaining -= available
                segment += 1
                offset = 0.0
        if segment >= len(waypoints) - 1:
            end = waypoints[-1]
            xs.append(end.x)
            ys.append(end.y)
        else:
            seg_start, seg_end = waypoints[segment], waypoints[segment + 1]
            seg_len = seg_start.distance_to(seg_end)
            fraction = offset / seg_len if seg_len > 0 else 0.0
            xs.append(seg_start.x + (seg_end.x - seg_start.x) * fraction)
            ys.append(seg_start.y + (seg_end.y - seg_start.y) * fraction)
