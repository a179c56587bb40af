"""Live-TCP observability smoke check (run by the CI bench-smoke job).

Boots a real :class:`ElapsTCPServer` on a loopback port, drives it with
a network client — subscribe, then a batched publish frame — and then
exercises the full metrics surface end to end:

1. a ``StatsRequest`` (frame type 12) must come back as a
   ``StatsSnapshot`` whose per-stage histograms are non-empty for the
   stages the traffic exercised;
2. the snapshot's counters must agree with the live server's;
3. ``render_prometheus`` over the decoded snapshot must produce valid
   text exposition format: every counter present exactly once, no
   duplicate sample names, each histogram series cumulative and
   ``+Inf``-terminated.

Run directly: ``PYTHONPATH=src python benchmarks/stats_smoke.py``.
Exits non-zero (via assert) on any violation.
"""

from __future__ import annotations

import asyncio
import re
import sys

from repro.core import IGM
from repro.datasets import TwitterLikeGenerator
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree, SubscriptionIndex
from repro.system import ServerConfig, ElapsServer, render_prometheus
from repro.system.network import ElapsNetworkClient, ElapsTCPServer
from repro.system.protocol import StatsSnapshot

SPACE = Rect(0, 0, 50_000, 50_000)
CORPUS = 400
BATCH = 64


def _build_server(generator) -> ElapsServer:
    server = ElapsServer(
        Grid(120, SPACE),
        IGM(max_cells=2_500),
        ServerConfig(initial_rate=20.0),
        event_index=BEQTree(SPACE, emax=512),
        subscription_index=SubscriptionIndex(generator.frequency_hint()))
    server.bootstrap(generator.events(CORPUS))
    return server


def _check_prometheus(text: str, counters: dict, stages: dict) -> None:
    lines = text.splitlines()
    assert lines, "empty exposition"
    samples = [line for line in lines if line and not line.startswith("#")]
    # every sample identity (name + label set) appears exactly once
    identities = [line.rsplit(" ", 1)[0] for line in samples]
    duplicates = {i for i in identities if identities.count(i) > 1}
    assert not duplicates, f"duplicate samples: {sorted(duplicates)}"
    # every counter field surfaces under its canonical metric name
    # (high-water marks render as gauges, no _total)
    for name in counters:
        if name.endswith("_high_water"):
            metric = f"elaps_{name}"
        else:
            metric = f"elaps_{name}_total"
        assert any(i == metric for i in identities), f"missing {metric}"
        assert f"# TYPE {metric} " in text, f"missing TYPE for {metric}"
    # HELP/TYPE are emitted once per family, never per series
    type_lines = [line for line in lines if line.startswith("# TYPE ")]
    assert len(type_lines) == len(set(type_lines)), "repeated TYPE lines"
    # each exercised stage has a cumulative, +Inf-terminated series
    family = "elaps_stage_duration_seconds"
    for stage, histogram in stages.items():
        pattern = re.compile(
            rf'{family}_bucket{{stage="{re.escape(stage)}",le="([^"]+)"}} (\d+)'
        )
        buckets = [
            (m.group(1), int(m.group(2)))
            for line in samples
            if (m := pattern.fullmatch(line))
        ]
        assert buckets, f"no bucket series for stage {stage!r}"
        assert buckets[-1][0] == "+Inf", f"{stage}: last bucket must be +Inf"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), f"{stage}: buckets must be cumulative"
        assert counts[-1] == histogram.count, f"{stage}: +Inf != count"
        assert f'{family}_sum{{stage="{stage}"}}' in text, f"{stage}: no _sum"
        assert f'{family}_count{{stage="{stage}"}}' in text, f"{stage}: no _count"


async def _main() -> None:
    generator = TwitterLikeGenerator(SPACE, seed=11)
    server = _build_server(generator)
    tcp = ElapsTCPServer(server, port=0)
    await tcp.start()
    client = ElapsNetworkClient("127.0.0.1", tcp.port)
    try:
        await client.connect()
        subscription = generator.subscriptions(1, size=3)[0]
        anchor = generator.events(1, seed_offset=3)[0]
        await client.subscribe(subscription, anchor.location, Point(60, 10))

        burst = generator.events(BATCH, start_id=10_000_000, seed_offset=7)
        await client.publish_batch(
            [(e.event_id, dict(e.attributes), e.location) for e in burst]
        )

        snapshot = await client.request_stats()
        assert isinstance(snapshot, StatsSnapshot), snapshot
        counters = snapshot.counters_dict()
        stages = snapshot.histograms()

        # the batched publish path must have left real spans behind
        for stage in ("publish", "match"):
            assert stage in stages, f"stage {stage!r} missing: {sorted(stages)}"
            assert stages[stage].count > 0, f"stage {stage!r} recorded nothing"
        # the snapshot mirrors the live server's counters
        assert counters == server.metrics.as_dict(), "snapshot/counter drift"
        assert counters["batches"] >= 1, counters

        text = render_prometheus(counters, stages)
        _check_prometheus(text, counters, stages)
    finally:
        await client.close()
        await tcp.stop()

    print(
        f"stats smoke OK: {len(counters)} counters, "
        f"{len(stages)} traced stages ({', '.join(sorted(stages))})"
    )


if __name__ == "__main__":
    asyncio.run(_main())
    sys.exit(0)
