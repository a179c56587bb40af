"""The communication cost model of Section 3.3.

Two communication types exist for a continuous query over a dynamic
stream:

* **type I** — the subscriber leaves the safe region; expected after
  ``ts(R) = d(s, R) / vs`` (Equation 3), so a *larger* safe region is
  better;
* **type II** — a new matching event lands in the impact region; expected
  after ``ti(I) = n / (f * ne)`` (Equation 5), so a *smaller* impact
  region (hence safe region, Lemma 3) is better.

The construction maximises ``f_obj = min(ts, ti)`` (Equation 1).  The
balance ratio ``bm = ts / ti`` (Equation 2) grows monotonically as the
safe region expands (Lemma 5), and Lemmas 6-7 show the optimum sits where
``bm`` crosses 1 — so iGM/idGM expand until the next cell would push
``bm`` past the termination threshold (1 in the paper; Figure 9 sweeps
the threshold ``beta`` to confirm the optimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SystemStats:
    """The stream/motion statistics the cost model consumes.

    ``event_rate`` is the average number of *new events per timestamp*
    (the paper's ``f``); ``total_events`` is the number of events
    currently stored (``n``).  Both are system-wide statistics maintained
    by the server, independent of any single safe region.
    """

    event_rate: float
    total_events: int

    def __post_init__(self) -> None:
        if self.event_rate < 0:
            raise ValueError(f"negative event rate: {self.event_rate}")
        if self.total_events < 0:
            raise ValueError(f"negative event count: {self.total_events}")


class CostModel:
    """Equations 1-6 with the degenerate cases made explicit."""

    def __init__(self, stats: SystemStats) -> None:
        self.stats = stats

    def expected_exit_time(self, boundary_distance: float, speed: float) -> float:
        """Equation 3: ``ts = d(s, R) / vs``; infinite for a parked user."""
        if speed <= 0:
            return math.inf
        return boundary_distance / speed

    def expected_impact_time(self, matching_in_impact: int) -> float:
        """Equation 5: ``ti = n / (f * ne)``; infinite when nothing can hit."""
        f, n = self.stats.event_rate, self.stats.total_events
        if f <= 0 or matching_in_impact <= 0 or n <= 0:
            return math.inf
        return n / (f * matching_in_impact)

    def balance(
        self, boundary_distance: float, speed: float, matching_in_impact: int
    ) -> float:
        """Equation 6: ``bm = f * ne * d(s, R) / (n * vs)``.

        Degenerate cases follow ``ts / ti`` limits: a parked user never
        exits (``bm = 0`` unless ``ti`` is also infinite, then 0 too — a
        parked user with no event pressure has nothing to trade off).

        ``ts`` and ``ti`` are spelled out as in :meth:`expected_exit_time`
        and :meth:`expected_impact_time`, the same operations and limits:
        Algorithm 1 evaluates this once per frontier pop.
        """
        f, n = self.stats.event_rate, self.stats.total_events
        if f <= 0 or matching_in_impact <= 0 or n <= 0:
            return 0.0  # ti is infinite: nothing can hit
        ti = n / (f * matching_in_impact)
        if math.isinf(ti):
            return 0.0
        if speed <= 0:
            return math.inf  # ts is infinite: a parked user never exits
        ts = boundary_distance / speed
        if math.isinf(ts) or ti == 0:
            return math.inf
        return ts / ti

    def objective(
        self, boundary_distance: float, speed: float, matching_in_impact: int
    ) -> float:
        """Equation 1: ``f_obj = min(ts, ti)``."""
        return min(
            self.expected_exit_time(boundary_distance, speed),
            self.expected_impact_time(matching_in_impact),
        )


@dataclass(frozen=True)
class RepairBudget:
    """When an incrementally repaired safe region must be rebuilt.

    Repairing (carving the new event's dilation out of the cached region)
    is always *valid* — safety is monotone, so the repaired region is a
    subset of what a fresh construction would build, and the old impact
    region stays a covering superset (Definition 2).  What repair loses is
    *optimality*: the region drifts away from the ``bm = 1`` balance point
    of Lemmas 6-7.  The budget bounds that staleness with three triggers:

    * **emptiness** — a repaired region with no cells forces the client to
      report every timestamp; rebuild (and let the server's degenerate
      branch install the Lemma-1 impact region);
    * **removed-cell fraction** — once more than ``max_removed_fraction``
      of the cells present at the last full construction are gone, the
      boundary distance ``d(s, R)`` the build optimised for is fiction;
    * **balance drift** — ``bm`` (Equation 6) is linear in the matching
      count ``ne`` for fixed ``d``, ``vs``, ``f`` and ``n``, so scaling the
      build-time ``bm`` by the observed growth of ``ne`` (each type-II hit
      adds one matching event inside the still-installed impact region)
      estimates the current balance without touching the matching field;
      past ``bm_slack`` times the strategy's termination threshold
      ``beta``, the region is paying too many event-arrival rounds.
    """

    max_removed_fraction: float = 0.35
    bm_slack: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.max_removed_fraction <= 1.0:
            raise ValueError(
                f"removed fraction must be in (0, 1]: {self.max_removed_fraction}"
            )
        if self.bm_slack < 1.0:
            raise ValueError(f"bm slack must be >= 1: {self.bm_slack}")

    def rebuild_reason(
        self,
        *,
        live_cells: int,
        cells_at_build: int,
        removed_since_build: int,
        beta: float,
        bm_at_build: Optional[float] = None,
        ne_at_build: int = 0,
        ne_estimate: int = 0,
    ) -> Optional[str]:
        """Why the region must be rebuilt, or None while repair suffices."""
        if live_cells <= 0:
            return "empty"
        if (
            cells_at_build > 0
            and removed_since_build / cells_at_build > self.max_removed_fraction
        ):
            return "removed_fraction"
        if bm_at_build is not None and ne_at_build > 0 and ne_estimate > ne_at_build:
            if bm_at_build * (ne_estimate / ne_at_build) > self.bm_slack * beta:
                return "balance"
        return None
