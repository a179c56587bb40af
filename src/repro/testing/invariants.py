"""The paper's contracts, checked by brute force against a live server.

Each check is a pure function of a server's subscriber records and its
live corpus — no index and no matching field is consulted, so a defect
in whatever built or cached a region cannot also hide the violation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..geometry import Cell


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
    live = {}
    for shard in getattr(server, "shard_servers", (server,)):
        live.update(shard._events_by_id)
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
