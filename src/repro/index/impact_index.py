"""The impact-region index (Section 5).

Safe regions travel to the clients; the matching *impact regions* stay on
the server, stored in an inverted index keyed by grid-cell id.  When a new
event arrives, the server looks up the event's cell and obtains exactly
the subscribers whose impact region covers that cell — the subscribers
whose safe region the event may invalidate (Definition 2).

GM produces impact regions covering almost the whole space, stored in
complement form.  Materialising those into the per-cell inverted index
would explode it, so complement regions live in a side table consulted on
every lookup — an honest rendering of GM's cost profile: with GM, *every*
arriving matching event hits (nearly) every subscriber.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..geometry import Cell

if TYPE_CHECKING:  # pragma: no cover
    from ..core.regions import ImpactRegion


class ImpactRegionIndex:
    """Inverted index: grid cell -> subscribers whose impact region covers it."""

    #: covering-cache entries beyond this are dropped wholesale (bounds
    #: the memory of a server fed events from a huge, sparse grid)
    CACHE_LIMIT = 1 << 16

    def __init__(self) -> None:
        self._by_cell: Dict[Cell, Set[int]] = defaultdict(set)
        self._by_subscriber: Dict[int, FrozenSet[Cell]] = {}
        self._complement: Dict[int, "ImpactRegion"] = {}
        # cell -> subscribers covering it, memoised for the batched event
        # path; any subscription churn (replace/remove) invalidates it
        # wholesale, since a complement region can change the answer for
        # every cell at once
        self._covering_cache: Dict[Cell, FrozenSet[int]] = {}
        #: batched lookups answered from the covering cache
        self.cache_hits = 0

    def __len__(self) -> int:
        return len(self._by_subscriber) + len(self._complement)

    def __contains__(self, sub_id: int) -> bool:
        return sub_id in self._by_subscriber or sub_id in self._complement

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def replace(self, sub_id: int, impact_cells: Iterable[Cell]) -> None:
        """Install (or overwrite) a subscriber's impact region as a cell set.

        Only the symmetric difference against the stored region touches
        the inverted index: consecutive regions of one moving subscriber
        overlap heavily, and the shared cells keep their postings.
        """
        self._covering_cache.clear()
        self._complement.pop(sub_id, None)
        cells = frozenset(impact_cells)
        old = self._by_subscriber.get(sub_id, frozenset())
        self._by_subscriber[sub_id] = cells
        self._unpost(sub_id, old - cells)
        for cell in cells - old:
            self._by_cell[cell].add(sub_id)

    def replace_region(self, sub_id: int, region: "ImpactRegion") -> None:
        """Install an :class:`ImpactRegion`, honouring complement storage."""
        if region.complement:
            self.remove(sub_id)
            self._complement[sub_id] = region
        else:
            self.replace(sub_id, region.cells)

    def remove(self, sub_id: int) -> None:
        """Drop a subscriber's impact region; no-op if absent."""
        self._covering_cache.clear()
        self._complement.pop(sub_id, None)
        self._unpost(sub_id, self._by_subscriber.pop(sub_id, ()))

    def _unpost(self, sub_id: int, cells: Iterable[Cell]) -> None:
        """Drop ``sub_id`` from the given cells' postings, leaving no
        empty bucket behind."""
        for cell in cells:
            bucket = self._by_cell[cell]
            bucket.discard(sub_id)
            if not bucket:
                del self._by_cell[cell]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def region_of(self, sub_id: int) -> Optional[Tuple[bool, FrozenSet[Cell]]]:
        """The stored region as ``(complement, cells)``; None when the
        subscriber has no installed region.  Used by snapshots — the
        cells are the exact durable representation either storage form
        round-trips through."""
        region = self._complement.get(sub_id)
        if region is not None:
            return True, frozenset(region.cells)
        cells = self._by_subscriber.get(sub_id)
        if cells is None:
            return None
        return False, cells

    def covers(self, sub_id: int, cell: Cell) -> bool:
        """Does this subscriber's impact region cover ``cell``?"""
        region = self._complement.get(sub_id)
        if region is not None:
            return region.covers_cell(cell)
        return sub_id in self._by_cell.get(cell, ())

    def subscribers_covering(self, cell: Cell) -> FrozenSet[int]:
        """All subscribers whose impact region covers ``cell``."""
        direct = self._by_cell.get(cell, set())
        via_complement = {
            sub_id
            for sub_id, region in self._complement.items()
            if region.covers_cell(cell)
        }
        return frozenset(direct | via_complement)

    def match_batch(self, cells: Iterable[Cell]) -> Dict[Cell, FrozenSet[int]]:
        """Covering subscribers for every distinct cell of a batch.

        ``sub_id in result[cell]`` is equivalent to
        ``self.covers(sub_id, cell)``, but a burst of events landing in
        the same cells pays the complement-table scan once per distinct
        cell, and the memo persists across batches until the next
        subscription churn.
        """
        result: Dict[Cell, FrozenSet[int]] = {}
        for cell in cells:
            if cell in result:
                continue
            covering = self._covering_cache.get(cell)
            if covering is not None:
                self.cache_hits += 1
            else:
                covering = self.subscribers_covering(cell)
                if len(self._covering_cache) >= self.CACHE_LIMIT:
                    self._covering_cache.clear()
                self._covering_cache[cell] = covering
            result[cell] = covering
        return result

    def cells_of(self, sub_id: int) -> FrozenSet[Cell]:
        """The stored impact cells of a directly-stored subscriber."""
        return self._by_subscriber.get(sub_id, frozenset())
