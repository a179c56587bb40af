"""GM: the grid-based safe-region baseline (Section 3.1, Figure 2b).

Grid-based safe regions come from spatial-alarm processing over *static*
datasets: the safe region is simply *every* cell farther than the
notification radius from every matching event — the whole space minus the
"forbidden" neighbourhoods of the matching events.  It maximises the
location-update channel (the subscriber almost never leaves), but its
impact region is essentially the whole space, so *every* new matching
event triggers communication — the failure mode that motivates the
paper's cost model.

Both regions are stored in complement form (the excluded cells), keeping
GM tractable even though its regions cover almost all of the grid.
"""

from __future__ import annotations

from .construction import ConstructionRequest, RegionPair, SafeRegionStrategy
from .regions import SafeRegion, impact_from_safe


class GridMethod(SafeRegionStrategy):
    """The GM baseline."""

    name = "GM"

    def construct(self, request: ConstructionRequest) -> RegionPair:
        """Build GM's regions: every safe cell, impact in complement form."""
        grid = request.grid
        radius = request.radius

        # Unsafe cells: within the radius of some matching event.  The
        # field collects them by dilating each event's location (through
        # the array dilation kernel for large corpora), so the cost scales
        # with the matching events, not with the grid area.
        unsafe = request.matching_field.unsafe_cells()

        safe = SafeRegion.of(grid, unsafe, complement=True)
        # GM's safe region need not contain the subscriber: if the
        # subscriber's own cell is unsafe the region is simply not valid
        # for him and the client reports every timestamp, exactly like an
        # empty iGM region.
        return RegionPair(
            safe=safe,
            impact=impact_from_safe(safe, radius),
            cells_examined=len(unsafe),
        )
