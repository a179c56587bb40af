"""The paper's contracts, checked by brute force against a live server.

Each check is a pure function of a server's subscriber records and its
live corpus — no index and no matching field is consulted, so a defect
in whatever built or cached a region cannot also hide the violation.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..geometry import Cell
from ..geometry.zorder import deinterleave_array


def _live_events(server):
    """The live corpus by id: a server's, or the union of an in-process
    fleet's shards'."""
    live = {}
    for shard in getattr(server, "shard_servers", (server,)):
        live.update(shard._events_by_id)
    return live


def definition1_violations(server) -> List[Tuple[int, int, Cell]]:
    """Definition 1 by brute force: the held safe cells within ``r``
    (closed) of a live, undelivered, be-matching event, as
    ``(sub_id, event_id, cell)`` triples — empty when the contract holds.

    ``server`` is an :class:`~repro.system.ElapsServer` or an in-process
    :class:`~repro.system.ShardedElapsServer`, whose corpus is the union
    of its shards'.  A complement-form region (GM) is checked over the
    cells it covers, not the ones it stores.
    """
    grid = server.grid
    live = _live_events(server)
    violations = []
    for sub_id, record in server.subscribers.items():
        if record.safe is None or record.safe.is_empty():
            continue
        cells = np.array(sorted(record.safe.iter_cells()))
        x_lo = grid.space.x_min + cells[:, 0] * grid.cell_width
        y_lo = grid.space.y_min + cells[:, 1] * grid.cell_height
        for event in live.values():
            if event.event_id in record.delivered:
                continue
            if not record.subscription.be_matches(event):
                continue
            x, y = event.location.x, event.location.y
            dx = np.maximum(np.maximum(x_lo - x, 0.0), x - (x_lo + grid.cell_width))
            dy = np.maximum(np.maximum(y_lo - y, 0.0), y - (y_lo + grid.cell_height))
            for k in np.flatnonzero(np.hypot(dx, dy) <= record.subscription.radius):
                violations.append((sub_id, event.event_id, tuple(cells[k].tolist())))
    return violations


def spurious_standing_rounds(server) -> List[Tuple[int, Cell]]:
    """Standing rounds that are not owed, by brute force: a subscriber
    holding an empty region reports every timestamp, which is owed only
    while the cell it stands in is within ``r`` (closed) of a live,
    undelivered, be-matching event.  Returns ``(sub_id, cell)`` for every
    empty-region holder whose cell no such event reaches — empty when
    every standing round is owed.

    ``server`` is an :class:`~repro.system.ElapsServer` or an in-process
    :class:`~repro.system.ShardedElapsServer` (the union corpus, the
    coordinator's records).  Events expiring is what ends a standing
    spell, so call it once a timestamp's reports and arrivals have
    settled and before its expiry sweep.
    """
    grid = server.grid
    live = _live_events(server)
    spurious = []
    for sub_id, record in server.subscribers.items():
        if record.safe is None or not record.safe.is_empty():
            continue
        cell = grid.cell_of(record.location)
        x_lo = grid.space.x_min + cell[0] * grid.cell_width
        y_lo = grid.space.y_min + cell[1] * grid.cell_height
        x_hi = grid.space.x_min + (cell[0] + 1) * grid.cell_width
        y_hi = grid.space.y_min + (cell[1] + 1) * grid.cell_height
        radius = record.subscription.radius
        for event in live.values():
            if event.event_id in record.delivered:
                continue
            if not record.subscription.be_matches(event):
                continue
            x, y = event.location.x, event.location.y
            dx = max(x_lo - x, 0.0, x - x_hi)
            dy = max(y_lo - y, 0.0, y - y_hi)
            if math.hypot(dx, dy) <= radius:
                break
        else:
            spurious.append((sub_id, cell))
    return spurious


def impact_coverage_violations(server) -> List[Tuple[int, Cell]]:
    """Definition 2 by brute force: the cells whose min cell-to-cell
    distance to a held safe region is ``< r`` but which that subscriber's
    installed impact region leaves out, as ``(sub_id, cell)`` pairs —
    empty when the contract holds.

    Checked per server, or per shard of an in-process
    :class:`~repro.system.ShardedElapsServer` (each shard installs the
    impact region of the region it built).  An empty held region is
    checked as the server covers it: the closed disk ``<= r`` around the
    ``degenerate_cell`` whose dilation it installed (none installed by a
    repair that carved the region empty: nothing to cover).  The offsets
    are enumerated here, not taken from the grid's disk tables.
    """
    violations = []
    for shard in getattr(server, "shard_servers", (server,)):
        grid, n = shard.grid, shard.grid.n
        for sub_id, record in shard.subscribers.items():
            if record.safe is None:
                continue
            held = np.zeros((n, n), dtype=bool)
            if record.safe.is_empty():
                if record.degenerate_cell is None:
                    continue
                held[record.degenerate_cell] = True
                closed = True
            else:
                held[tuple(np.array(list(record.safe.iter_cells())).T)] = True
                closed = False
            required = _dilated(grid, held, record.subscription.radius, closed)
            installed = np.zeros((n, n), dtype=bool)
            stored = shard.impact_index.region_of(sub_id)
            if stored is not None:
                complement, codes = stored
                installed[deinterleave_array(codes)] = True
                if complement:
                    installed = ~installed
            for i, j in zip(*np.nonzero(required & ~installed)):
                violations.append((sub_id, (int(i), int(j))))
    return violations


def _dilated(grid, mask: np.ndarray, radius: float, closed: bool) -> np.ndarray:
    """``mask`` grown by every index offset whose cell-to-cell min
    distance is ``< radius`` (``<=`` when ``closed``)."""
    n = grid.n
    out = np.zeros_like(mask)
    reach_i = int(radius / grid.cell_width) + 1
    reach_j = int(radius / grid.cell_height) + 1
    for di in range(-reach_i, reach_i + 1):
        for dj in range(-reach_j, reach_j + 1):
            gap = math.hypot(
                max(abs(di) - 1, 0) * grid.cell_width,
                max(abs(dj) - 1, 0) * grid.cell_height,
            )
            if gap < radius or (closed and gap == radius):
                out[max(di, 0) : n + min(di, 0), max(dj, 0) : n + min(dj, 0)] |= mask[
                    max(-di, 0) : n - max(di, 0), max(-dj, 0) : n - max(dj, 0)
                ]
    return out
