"""Spatial placement of events: hotspot mixtures.

Geo-tweets and venues cluster around urban centres.  Locations are drawn
from a mixture of Gaussian hotspots plus a uniform background, clipped to
the space; the hotspot layout is itself seeded so a generator is fully
reproducible.  :class:`LocationSampler` picks hotspots uniformly — mild,
spread-out clustering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..geometry import Point, Rect


@dataclass(frozen=True)
class Hotspot:
    """One Gaussian cluster centre with its spread."""
    center: Point
    std: float


class LocationSampler:
    """Mixture of Gaussian hotspots with a uniform background."""

    def __init__(
        self,
        space: Rect,
        hotspots: int = 8,
        hotspot_std_fraction: float = 0.03,
        uniform_fraction: float = 0.2,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= uniform_fraction <= 1.0:
            raise ValueError(f"uniform fraction must be in [0, 1]: {uniform_fraction}")
        self.space = space
        self.uniform_fraction = uniform_fraction
        layout_rng = random.Random(seed)
        std = hotspot_std_fraction * min(space.width, space.height)
        self.hotspots: List[Hotspot] = [
            Hotspot(
                Point(
                    layout_rng.uniform(space.x_min + std, space.x_max - std),
                    layout_rng.uniform(space.y_min + std, space.y_max - std),
                ),
                std * layout_rng.uniform(0.5, 1.5),
            )
            for _ in range(hotspots)
        ]

    def sample(self, rng: random.Random) -> Point:
        """One location: a hotspot draw or the uniform background."""
        if not self.hotspots or rng.random() < self.uniform_fraction:
            return Point(
                rng.uniform(self.space.x_min, self.space.x_max),
                rng.uniform(self.space.y_min, self.space.y_max),
            )
        hotspot = rng.choice(self.hotspots)
        x = min(max(rng.gauss(hotspot.center.x, hotspot.std), self.space.x_min), self.space.x_max)
        y = min(max(rng.gauss(hotspot.center.y, hotspot.std), self.space.y_min), self.space.y_max)
        return Point(x, y)
