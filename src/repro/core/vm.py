"""VM: the Voronoi-based safe-region baseline (Section 3.1, Figure 2a).

Voronoi diagrams serve continuous spatial queries over *static* datasets:
the safe region is the Voronoi cell of the subscriber's nearest matching
event, minus the forbidden disk of radius ``r`` around that event.  The
impact region is the same cell dilated by ``r`` — which, as the paper
observes, always hugs the densest spot (the area around the nearest
matching event), making VM pay heavily on the event-arrival channel.

The region is rendered on the grid conservatively:

* a cell must be *safe* (min distance to every matching event > r), which
  alone preserves the no-missed-notification guarantee;
* a cell must be dominated by the nearest event (its centre closer to the
  nearest event than to any other matching event), clipping the region to
  the Voronoi cell;
* cells are collected by a flood fill from the subscriber so the region
  stays connected and contains the subscriber.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Set

from scipy.spatial import cKDTree

from ..geometry import Cell
from .construction import ConstructionRequest, RegionPair, SafeRegionStrategy
from .regions import SafeRegion, impact_from_safe


class VoronoiMethod(SafeRegionStrategy):
    """The VM baseline."""

    name = "VM"

    def __init__(self, max_cells: Optional[int] = None) -> None:
        self.max_cells = max_cells

    def construct(self, request: ConstructionRequest) -> RegionPair:
        """Build VM's regions: the clipped Voronoi cell of the nearest event."""
        grid = request.grid
        field = request.matching_field
        events = field.all_points()
        cells_examined = 0

        if not events:
            # No matching event anywhere: the whole space is one Voronoi
            # "cell"; VM degenerates to the full safe space.
            safe = SafeRegion.whole_space(grid)
            return RegionPair(safe, impact_from_safe(safe, request.radius))

        tree = cKDTree([(e.x, e.y) for e in events])
        _, nearest_index = tree.query((request.location.x, request.location.y))
        nearest = events[int(nearest_index)]

        def dominated(cell: Cell) -> bool:
            # The cell centre lies in the Voronoi cell of ``nearest`` iff
            # its nearest matching event is ``nearest`` (distance ties ok).
            center = grid.cell_center(cell)
            best_distance, _ = tree.query((center.x, center.y))
            return center.distance_to(nearest) <= best_distance + 1e-9

        start = grid.cell_of(request.location)
        region: Set[Cell] = set()
        queue = deque([start])
        seen = {start}
        while queue:
            if self.max_cells is not None and len(region) >= self.max_cells:
                break
            cell = queue.popleft()
            cells_examined += 1
            if not field.is_cell_safe(cell):
                continue
            if cell != start and not dominated(cell):
                continue
            region.add(cell)
            for neighbor in grid.neighbors(cell):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)

        safe = SafeRegion.of(grid, region)
        return RegionPair(
            safe=safe,
            impact=impact_from_safe(safe, request.radius),
            cells_examined=cells_examined,
        )
