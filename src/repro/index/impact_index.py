"""The impact-region index (Section 5).

Safe regions travel to the clients; the matching *impact regions* stay on
the server, stored in an inverted index keyed by grid-cell id (the
cell's Morton code).  When a new event arrives, the server looks up the
event's cell and obtains exactly the subscribers whose impact region
covers that cell — the subscribers whose safe region the event may
invalidate (Definition 2).

GM produces impact regions covering almost the whole space, stored in
complement form.  Materialising those into the per-cell inverted index
would explode it, so complement regions live in a side table consulted on
every lookup — an honest rendering of GM's cost profile: with GM, *every*
arriving matching event hits (nearly) every subscriber.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..geometry.zorder import sorted_membership

if TYPE_CHECKING:  # pragma: no cover
    from ..core.regions import ImpactRegion

_NO_CODES = np.empty(0, dtype=np.int64)
_NO_CODES.flags.writeable = False


class ImpactRegionIndex:
    """Inverted index: grid cell -> subscribers whose impact region covers it.

    A cell is addressed by its Morton code (``Grid.code_of``), as regions
    store it, and its posting is one Python int: a bitmask over
    subscriber *slots* (small integers handed out on a subscriber's first
    install and reused after its removal).  An int holds no references,
    so the postings are invisible to the cyclic collector, and ~150
    subscribers' bits cost a few dozen bytes where a ``set`` cost ~700.
    Each directly-stored subscriber keeps its region's code array, so an
    install diffs two sorted arrays.
    """

    #: covering-cache entries beyond this are dropped wholesale (bounds
    #: the memory of a server fed events from a huge, sparse grid)
    CACHE_LIMIT = 1 << 16

    def __init__(self) -> None:
        self._by_cell: Dict[int, int] = {}
        self._by_subscriber: Dict[int, np.ndarray] = {}
        self._complement: Dict[int, "ImpactRegion"] = {}
        #: sub_id -> slot, and slot -> sub_id (None when free)
        self._slot_of: Dict[int, int] = {}
        self._sub_at: List[Optional[int]] = []
        #: free slots, lowest first, so masks stay as short as the
        #: population allows
        self._free: List[int] = []
        # cell -> subscribers covering it, memoised for the batched event
        # path; any subscription churn (replace/remove) invalidates it
        # wholesale, since a complement region can change the answer for
        # every cell at once
        self._covering_cache: Dict[int, FrozenSet[int]] = {}
        #: batched lookups answered from the covering cache
        self.cache_hits = 0

    def __len__(self) -> int:
        return len(self._by_subscriber) + len(self._complement)

    def __contains__(self, sub_id: int) -> bool:
        return sub_id in self._by_subscriber or sub_id in self._complement

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def replace(self, sub_id: int, codes: np.ndarray) -> None:
        """Install (or overwrite) a subscriber's impact region as the
        ascending array of its cells' Morton codes.

        Only the symmetric difference against the stored region touches
        the inverted index: consecutive regions of one moving subscriber
        overlap heavily, and the shared cells keep their postings.
        """
        self._covering_cache.clear()
        self._complement.pop(sub_id, None)
        slot = self._slot_of.get(sub_id)
        if slot is None:
            if self._free:
                slot = heapq.heappop(self._free)
                self._sub_at[slot] = sub_id
            else:
                slot = len(self._sub_at)
                self._sub_at.append(sub_id)
            self._slot_of[sub_id] = slot
        bit = 1 << slot
        old = self._by_subscriber.get(sub_id, _NO_CODES)
        self._by_subscriber[sub_id] = codes
        self._unpost(bit, old[~sorted_membership(codes, old)].tolist())
        by_cell = self._by_cell
        for code in codes[~sorted_membership(old, codes)].tolist():
            by_cell[code] = by_cell.get(code, 0) | bit

    def replace_region(self, sub_id: int, region: "ImpactRegion") -> None:
        """Install an :class:`ImpactRegion`, honouring complement storage."""
        if region.complement:
            self.remove(sub_id)
            self._complement[sub_id] = region
        else:
            self.replace(sub_id, region.codes)

    def remove(self, sub_id: int) -> None:
        """Drop a subscriber's impact region; no-op if absent."""
        self._covering_cache.clear()
        self._complement.pop(sub_id, None)
        slot = self._slot_of.pop(sub_id, None)
        if slot is None:
            return
        self._unpost(1 << slot, self._by_subscriber.pop(sub_id).tolist())
        self._sub_at[slot] = None
        heapq.heappush(self._free, slot)

    def _unpost(self, bit: int, codes: Iterable[int]) -> None:
        """Clear ``bit`` in the given cells' postings, leaving no empty
        posting behind."""
        by_cell = self._by_cell
        for code in codes:
            rest = by_cell[code] ^ bit
            if rest:
                by_cell[code] = rest
            else:
                del by_cell[code]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def region_of(self, sub_id: int) -> Optional[Tuple[bool, np.ndarray]]:
        """The stored region as ``(complement, codes)``; None when the
        subscriber has no installed region.  Used by snapshots — the
        codes are the exact durable representation either storage form
        round-trips through."""
        region = self._complement.get(sub_id)
        if region is not None:
            return True, region.codes
        codes = self._by_subscriber.get(sub_id)
        if codes is None:
            return None
        return False, codes

    def covers(self, sub_id: int, code: int) -> bool:
        """Does this subscriber's impact region cover the cell ``code``?"""
        region = self._complement.get(sub_id)
        if region is not None:
            return region.covers_code(code)
        slot = self._slot_of.get(sub_id)
        return slot is not None and bool(self._by_cell.get(code, 0) >> slot & 1)

    def subscribers_covering(self, code: int) -> FrozenSet[int]:
        """All subscribers whose impact region covers the cell ``code``."""
        covering = set()
        mask = self._by_cell.get(code, 0)
        sub_at = self._sub_at
        while mask:
            low = mask & -mask
            covering.add(sub_at[low.bit_length() - 1])
            mask ^= low
        for sub_id, region in self._complement.items():
            if region.covers_code(code):
                covering.add(sub_id)
        return frozenset(covering)

    def match_batch(self, codes: Iterable[int]) -> Dict[int, FrozenSet[int]]:
        """Covering subscribers for every distinct cell of a batch.

        ``sub_id in result[code]`` is equivalent to
        ``self.covers(sub_id, code)``, but a burst of events landing in
        the same cells pays the complement-table scan once per distinct
        cell, and the memo persists across batches until the next
        subscription churn.
        """
        result: Dict[int, FrozenSet[int]] = {}
        for code in codes:
            if code in result:
                continue
            covering = self._covering_cache.get(code)
            if covering is not None:
                self.cache_hits += 1
            else:
                covering = self.subscribers_covering(code)
                if len(self._covering_cache) >= self.CACHE_LIMIT:
                    self._covering_cache.clear()
                self._covering_cache[code] = covering
            result[code] = covering
        return result

    def cells_of(self, sub_id: int) -> np.ndarray:
        """The stored impact codes of a directly-stored subscriber."""
        return self._by_subscriber.get(sub_id, _NO_CODES)
