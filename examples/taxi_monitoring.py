"""Taxi monitoring: comparing the four safe-region strategies on
taxi-style movement (the paper's Section 6.2.2 setting).

Forty subscribers ride taxis through a Singapore-sized space while a
Twitter-like stream publishes geo-events.  The same world is replayed
against VM, GM, iGM and idGM, and the per-subscriber communication
overhead is printed side by side — the experiment behind Figure 7(e/f),
at laptop scale.

Run:  python examples/taxi_monitoring.py       (~1-2 minutes)
"""

from repro import ExperimentConfig, run_experiment

CONFIG = ExperimentConfig(
    movement="taxi",
    dataset="twitter",
    initial_events=6_000,
    event_rate=20.0,
    event_ttl=50,
    subscribers=24,
    timestamps=200,
    speed=60.0,
    radius=3_000.0,
)


def main() -> None:
    print(f"{CONFIG.subscribers} taxis, {CONFIG.timestamps} timestamps "
          f"(5 s each), f={CONFIG.event_rate:.0f} events/timestamp, "
          f"r={CONFIG.radius / 1000:.0f} km\n")
    print(f"{'method':<6} {'location upd.':>14} {'event arrival':>14} "
          f"{'total I/O':>10} {'notifications':>14}")
    totals = {}
    for strategy in ("VM", "GM", "iGM", "idGM"):
        result = run_experiment(CONFIG.with_(strategy=strategy))
        per = result.per_subscriber()
        totals[strategy] = per["total"]
        print(f"{strategy:<6} {per['location_update']:>14.1f} "
              f"{per['event_arrival']:>14.1f} {per['total']:>10.1f} "
              f"{per['notifications']:>14.1f}")
    best = min(totals, key=totals.get)
    worst = max(totals, key=totals.get)
    print(f"\n{best} needs {totals[worst] / totals[best]:.1f}x less communication "
          f"than {worst} — the cost model at work (Section 3.3).")


if __name__ == "__main__":
    main()
