"""The four workloads at their committed sizes, and one run of one of them.

Sizes are set so that a run — input generation, three set-ups, the
measured window, recovery and the audit — ends inside half a minute on a
two-core shared host; see ``bench/README.md`` for why each exists and
which layer it loads.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
from typing import Tuple

from . import ROOT
from .fanout import Fanout, FanoutScenario
from .layers import fanout_layers, lockstep_layers
from .lockstep import Lockstep, Scenario
from .trace import Recorder

SCENARIOS = {
    # The paper's own experiment: commuters on roads, r = 2 km, 60 m per
    # timestamp, 20 events per timestamp against a 6 000-event corpus that
    # the TTL keeps at that size.
    "commute_sim": Scenario(
        subscribers=150, speed=60.0, radius=(2000.0, 2000.0), corpus=6000,
        batch=20, ttl=300, churn=0, grid_n=120, max_cells=500, shards=0,
        snapshot_every=0, unit_ticks=10, count_ticks=160, warmup_ticks=40,
    ),
    # Stationary subscribers under an event storm, with subscriber churn
    # and expiry as the writes beside the matching reads.
    "event_storm": Scenario(
        subscribers=500, speed=0.0, radius=(100.0, 300.0), corpus=1280,
        batch=64, ttl=20, churn=2, grid_n=200, max_cells=60, shards=0,
        snapshot_every=0, unit_ticks=10, count_ticks=300, warmup_ticks=20,
    ),
    # The storm without churn through a journaled two-process fleet.  Every
    # shipped region crosses a pipe pickled together with its grid, and on
    # the storm's 200-cell grid that made throughput a function of how
    # many event-arrival rounds a seed happened to draw (7 000–9 300
    # events/s over eight seeds, 8 100–8 700 for one seed five times); a
    # 100-cell grid and 256-event batches keep the pipes busy without
    # letting one round cost as much as a whole batch.
    "durable_fleet": Scenario(
        subscribers=120, speed=0.0, radius=(100.0, 300.0), corpus=1280,
        batch=256, ttl=5, churn=0, grid_n=100, max_cells=30, shards=2,
        snapshot_every=64, unit_ticks=5, count_ticks=150, warmup_ticks=10,
        # a fleet set-up is a second of forks and pipe round trips, which
        # reads 0.7–1.15 s from one to the next: five, not three
        setups=5,
    ),
    "fanout_tcp": FanoutScenario(),
}

#: commuter routes are drawn this long; a host that outruns them ends the
#: window early rather than parking every walker at its destination
ROUTE_TICKS = 4000


def _workdir() -> str:
    """Scratch space inside the checkout (journals, replay targets)."""
    base = os.path.join(ROOT, "bench", "results", "tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)


def _make(name: str, seed: int, scale: float, workdir: str, recorder=None):
    scenario = SCENARIOS[name].scaled(scale)
    if name == "fanout_tcp":
        run = Fanout(scenario, seed, trace=recorder is not None)
    else:
        run = Lockstep(scenario, seed, workdir, recorder)
    run.prepare_routes(ROUTE_TICKS)
    return run


def _measure(run, seconds: float, counted: bool = True) -> Tuple[int, int, int]:
    """Window, recovery and audit of a set-up run:
    ``(replayed, attempted, failed)``."""
    run.run(seconds, counted)
    replayed = run.recover()
    checked, failed = run.audit()
    return replayed, checked + getattr(run, "operations", 0), failed


def plain_run(name: str, seed: int, seconds: float, scale: float = 1.0):
    """The end-to-end metrics of one workload:
    ``(metrics, attempted, failed, failure messages)``."""
    workdir = _workdir()
    run = _make(name, seed, scale, workdir)
    try:
        setups = [
            run.speed.reference_seconds(run.setup)[0]
            for _ in range(run.scenario.setups if scale >= 1.0 else 1)  # 1 to smoke-test
        ]
        _, attempted, failed = _measure(run, seconds)
        run.close_server()  # a TCP child hands over its speed samples here
        metrics = run.end_to_end()
        metrics["setup_s"] = statistics.median(setups)
        metrics["recover_s"] = run.recover_s
        return metrics, attempted, failed, list(run.failures)
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(name: str, seed: int, seconds: float, scale: float = 1.0):
    """The per-layer metrics of one workload:
    ``(metrics, attempted, failed, failure messages)``.

    Half the time goes to an untraced window on the same inputs, so the
    tracing overhead is measured in the run that reports it.
    """
    workdir = _workdir()
    try:
        plain = _make(name, seed, scale, workdir)
        try:
            plain.setup()
            plain.run(seconds / 2, counted=False)
            plain.close_server()
            plain_rate = plain.events_per_s()
        finally:
            plain.close()
        run = _make(name, seed, scale, workdir, Recorder())
        try:
            run.setup()
            replayed, attempted, failed = _measure(run, seconds / 2, counted=False)
            if isinstance(run, Fanout):
                run.close_server()  # the child reports its spans on exit
                layers = fanout_layers(run)
            else:
                layers = lockstep_layers(run, replayed)
            traced_rate = run.events_per_s()
            layers["bench.trace_overhead_share"] = (plain_rate - traced_rate) / plain_rate
            layers["bench.failed_share"] = failed / attempted
            return layers, attempted, failed, list(run.failures)
        finally:
            run.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
