"""Shared benchmark configuration: Table 2, scaled for a pure-Python substrate.

The paper's evaluation ran a C++ prototype against 10M-50M events, 10,000
trajectories and up to 500 events/timestamp.  These benches keep the same
*sweeps* (the x axes of every figure) at roughly 1:10 for the event arrival
rate and 1:5000 for corpus sizes, with the defaults in DEFAULTS mirroring
Table 2's bold values.  Set ``REPRO_BENCH_FAST=1`` to shrink everything
further for smoke runs.

The communication figures report per-subscriber averages exactly as the
paper does, split into location-update and event-arrival rounds.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Sequence

from repro.system import ExperimentConfig, run_experiment

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"


def _scaled(full, fast):
    return fast if FAST else full


#: Table 2 defaults (bold values), scaled: f=100/tm -> 20/tm, vs=60 m/tm,
#: r=3 km, E=30M -> 6000.  Stream events carry a validity period, so the
#: live corpus stays in a steady state like the paper's.
DEFAULTS = ExperimentConfig(
    dataset="twitter",
    movement="synthetic",
    event_rate=20.0,
    speed=60.0,
    radius=3_000.0,
    initial_events=_scaled(6_000, 2_000),
    subscription_size=3,
    subscribers=_scaled(10, 5),
    timestamps=_scaled(120, 50),
    grid_n=120,
    event_ttl=50,
    max_cells=2_500,
    seed=7,
)

#: paper sweeps (Table 2), arrival rate scaled 1:5
F_SWEEP: Sequence[float] = (2.0, 10.0, 20.0, 100.0)  # paper: 10, 50, 100, 500
V_SWEEP: Sequence[float] = (20.0, 40.0, 60.0, 80.0, 100.0)  # as in the paper
R_SWEEP: Sequence[float] = (1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0)
E_SWEEP: Sequence[int] = tuple(
    _scaled((2_000, 4_000, 6_000, 8_000, 10_000), (500, 1_000, 2_000, 3_000, 4_000))
)  # paper: 10M .. 50M
DELTA_SWEEP: Sequence[int] = (1, 2, 3, 4, 5)

STRATEGY_ORDER = ("VM", "GM", "iGM", "idGM")


def run_strategy(config: ExperimentConfig, strategy: str, **overrides) -> Dict[str, float]:
    """Run one (configuration, strategy) cell and return the figure row."""
    cell = config.with_(strategy=strategy, **overrides)
    result = run_experiment(cell)
    per = result.per_subscriber()
    return {
        "strategy": strategy,
        "location_update": per["location_update"],
        "event_arrival": per["event_arrival"],
        "total": per["total"],
        "notifications": per["notifications"],
        "server_seconds": result.stats.server_seconds,
        "constructions": result.stats.constructions,
        "events_scanned": result.stats.events_scanned,
    }


def communication_sweep(
    config: ExperimentConfig,
    parameter: str,
    values: Iterable,
    strategies: Sequence[str] = STRATEGY_ORDER,
) -> List[Dict[str, float]]:
    """One communication figure: sweep a parameter across all strategies."""
    rows: List[Dict[str, float]] = []
    for value in values:
        for strategy in strategies:
            row = run_strategy(config.with_(**{parameter: value}), strategy)
            row[parameter] = value
            rows.append(row)
    return rows


def format_table(rows: Sequence[Dict], columns: Sequence[str], title: str) -> str:
    """A fixed-width text table, one row per dict."""
    widths = [max(len(c), 14) for c in columns]
    lines = [title, ""]
    lines.append("  ".join(c.rjust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        cells = []
        for column, width in zip(columns, widths):
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.2f}".rjust(width))
            else:
                cells.append(str(value).rjust(width))
        lines.append("  ".join(cells))
    lines.append("")
    return "\n".join(lines)
