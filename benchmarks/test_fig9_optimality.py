"""Figure 9: optimality of the cost model.

iGM/idGM normally stop expanding when the balance ratio ``bm`` would pass
1.  This bench terminates the expansion at different thresholds
``beta in 1e-2 .. 1e2`` and measures the total communication I/O: the
curve must be U-shaped with its minimum at (or next to) ``beta = 1`` —
stopping earlier under-uses safe regions, stopping later over-exposes
the impact region to arrivals (Lemmas 6-7).

Both datasets are swept as in the paper.
"""

from __future__ import annotations

from config import DEFAULTS, FAST, format_table, run_strategy

BETAS = (0.01, 0.1, 1.0, 10.0, 100.0)
STRATEGIES = ("iGM",) if FAST else ("iGM", "idGM")
DATASETS = ("twitter",) if FAST else ("twitter", "foursquare")


def _sweep():
    rows = []
    for dataset in DATASETS:
        config = DEFAULTS.with_(dataset=dataset)
        for strategy in STRATEGIES:
            for beta in BETAS:
                row = run_strategy(config, strategy, beta=beta)
                row["beta"] = beta
                row["dataset"] = dataset
                rows.append(row)
    return rows


def test_fig9_beta_sweep(benchmark, report):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report(
        "fig9",
        format_table(
            rows,
            ("dataset", "strategy", "beta", "location_update", "event_arrival", "total"),
            "Figure 9 (optimality: terminate expansion at bm <= beta)",
        ),
    )
    for dataset in DATASETS:
        for strategy in STRATEGIES:
            series = {
                r["beta"]: r["total"]
                for r in rows
                if r["dataset"] == dataset and r["strategy"] == strategy
            }
            best_beta = min(series, key=series.get)
            # the optimum sits at beta = 1 or an adjacent grid point
            assert best_beta in (0.1, 1.0, 10.0), (dataset, strategy, series)
            # the extremes are never the best
            assert series[0.01] >= series[best_beta]
            assert series[100.0] >= series[best_beta]
