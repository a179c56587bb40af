"""The safe-region construction interface shared by VM, GM, iGM and idGM.

A *construction request* bundles what every method needs: the subscriber's
reported location and velocity, the matching-event field (which brings
the grid and the notification radius it was built for), and the system
statistics.  A *region pair* is the result: the safe region (shipped to
the client) and its impact region (kept in the server's impact index),
plus the bookkeeping counters the evaluation reports (cells examined,
events scanned).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from ..geometry import Grid, Point
from .cost_model import SystemStats
from .field import MatchingEventField
from .regions import ImpactRegion, SafeRegion


@dataclass
class ConstructionRequest:
    """Everything a safe-region constructor needs for one subscriber."""

    location: Point
    velocity: Point  # metres per timestamp; the norm is the speed ``vs``
    matching_field: MatchingEventField
    stats: SystemStats

    @property
    def grid(self) -> Grid:
        """The grid the matching field was built over."""
        return self.matching_field.grid

    @property
    def radius(self) -> float:
        """The notification radius the matching field was built for."""
        return self.matching_field.radius

    @property
    def speed(self) -> float:
        """The scalar speed ``vs`` (metres per timestamp)."""
        return self.velocity.norm()


@dataclass
class RegionPair:
    """A freshly constructed safe region with its impact region."""

    safe: SafeRegion
    impact: ImpactRegion
    cells_examined: int = 0
    #: balance-ratio diagnostics from the incremental methods (Equation 6):
    #: the ``bm`` of the last cell the expansion accepted and of the first
    #: candidate it rejected for exceeding ``beta``.  At the stopping point
    #: these straddle the threshold (Lemmas 5-7); ``None`` for methods that
    #: do not evaluate ``bm`` (VM, GM) or when no cell hit that side.
    last_accepted_bm: Optional[float] = None
    first_rejected_bm: Optional[float] = None
    #: the matching-event count ``ne`` inside the impact region at build
    #: time (Equation 5's numerator input).  The repair path scales the
    #: build-time ``bm`` by the growth of this count to estimate balance
    #: drift without re-querying the matching field; ``None`` for methods
    #: that never counted it (VM, GM).
    matching_in_impact: Optional[int] = None
    #: the exact frontier pop order, recorded only when the strategy was
    #: built with ``record_visits=True``.  Diagnostics for the
    #: array-core-vs-scalar-oracle differential suite, which asserts
    #: order equality, not just set equality; ``None`` otherwise.
    visit_order: Optional[tuple] = None


class SafeRegionStrategy(abc.ABC):
    """One of the four construction methods compared in Section 6."""

    #: short label used in benchmark tables ("VM", "GM", "iGM", "idGM")
    name: str = "?"

    @abc.abstractmethod
    def construct(self, request: ConstructionRequest) -> RegionPair:
        """Build the safe and impact regions for one subscriber."""
