"""The per-layer budget of a traced run, from the benchmark's own spans.

Three sources, none of them a change to ``src/``: (a) the span log of the
proxies in the constructor seams, bounded to the measured window; (b) a
replay of captured regions and notifications through the layers with no
seam (:func:`bench.wire.codec_costs`, the journal files); (c) the
program's own counters and stage histograms — the only view into a fleet's
worker processes and, with ``/proc``, into the TCP child.

``busy_s`` is inclusive of the layers called below; ``busy_share`` is the
layer's *self* time over the window, so the shares of one process add up
to (at most) one and ``bench.reconcile_gap_share`` is what is left over.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
from time import perf_counter
from typing import Dict, Mapping

from repro.system import Journal

from . import wire
from .fanout import Fanout, percentile
from .lockstep import Lockstep
from .trace import Total

_NONE = Total()


def _layer_self(totals: Mapping[str, Total], layer: str) -> float:
    return sum(t.self_time for name, t in totals.items() if name.split(":")[0] == layer)


def _span_layers(totals: Mapping[str, Total], window: float, out: Dict[str, float]) -> None:
    """The metrics that come straight from proxy spans."""
    get = lambda name: totals.get(name, _NONE)
    for op in ("publish", "report", "subscribe"):
        out[f"system.server.{op}_calls"] = get(f"system.server:{op}").calls
        out[f"system.server.{op}_self_s"] = get(f"system.server:{op}").self_time
    out["system.server.expire_calls"] = get("system.server:expire").calls
    out["system.server.expire_busy_s"] = get("system.server:expire").busy
    out["system.server.self_share"] = _layer_self(totals, "system.server") / window

    match = get("index.subscription_index:match")
    write = get("index.subscription_index:write")
    out["index.subscription_index.match_calls"] = match.calls
    out["index.subscription_index.match_busy_s"] = match.busy
    out["index.subscription_index.write_calls"] = write.calls
    out["index.subscription_index.write_busy_s"] = write.busy
    out["index.subscription_index.busy_share"] = (
        _layer_self(totals, "index.subscription_index") / window
    )

    probe = get("index.impact_index:probe")
    out["index.impact_index.probe_calls"] = probe.calls
    out["index.impact_index.probe_busy_s"] = probe.busy
    out["index.impact_index.busy_share"] = _layer_self(totals, "index.impact_index") / window

    out["index.beq_tree.insert_calls"] = get("index.beq_tree:insert").calls
    out["index.beq_tree.insert_busy_s"] = get("index.beq_tree:insert").busy
    out["index.beq_tree.delete_busy_s"] = get("index.beq_tree:delete").busy
    out["index.beq_tree.match_calls"] = get("index.beq_tree:match").calls
    out["index.beq_tree.match_busy_s"] = get("index.beq_tree:match").busy
    out["index.beq_tree.busy_share"] = _layer_self(totals, "index.beq_tree") / window

    construct = get("core:construct")
    out["core.construct_calls"] = construct.calls
    out["core.construct_busy_s"] = construct.busy
    out["core.busy_share"] = construct.self_time / window


def _counter_layers(delta: Mapping[str, float], out: Dict[str, float]) -> None:
    """The metrics that come from the program's counters over the window."""
    out["index.subscription_index.probes"] = delta.get("match_batch_probes", 0)
    out["index.subscription_index.partitions_pruned"] = delta.get("partitions_pruned", 0)
    repairs = delta.get("repairs", 0)
    fallbacks = delta.get("repair_fallbacks", 0)
    out["core.repair_calls"] = repairs
    out["core.repair_fallbacks"] = fallbacks
    out["core.repair_success_ratio"] = repairs / (repairs + fallbacks) if repairs + fallbacks else 0.0
    out["system.journal.records"] = delta.get("journal_records", 0)
    events = delta.get("batch_events", 0)
    out["system.journal.bytes_per_event"] = delta.get("journal_bytes", 0) / events if events else 0.0
    out["system.journal.snapshot_count"] = delta.get("snapshots_taken", 0)
    for counter in (
        "ingress_queue_high_water", "send_queue_high_water", "frames_shed",
        "superseded_region_ships", "slow_consumer_disconnects",
    ):
        out[f"system.network.{counter}"] = delta.get(counter, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def lockstep_layers(run: Lockstep, replayed: int) -> Dict[str, float]:
    """Every per-layer metric of one traced in-process run."""
    recorder = run.recorder
    (opened, counters_before, stages_before) = run.window_opened
    (closed, counters_after, stages_after) = run.window_closed
    window = run.window_s
    totals = recorder.totals(opened.position, closed.position)
    delta = {
        name: counters_after[name] - counters_before.get(name, 0)
        for name, value in counters_after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    out: Dict[str, float] = {}
    _span_layers(totals, window, out)
    _counter_layers(delta, out)

    if run.scenario.shards:
        # the workers' layers are only visible through the program's own
        # stage histograms; "match" there also covers corpus matches
        stage = lambda name: (
            stages_after.get(name, (0, 0.0))[1] - stages_before.get(name, (0, 0.0))[1]
        )
        calls = lambda name: (
            stages_after.get(name, (0, 0.0))[0] - stages_before.get(name, (0, 0.0))[0]
        )
        out["index.subscription_index.match_calls"] = calls("match")
        out["index.subscription_index.match_busy_s"] = stage("match")
        out["index.subscription_index.busy_share"] = stage("match") / window
        out["core.construct_calls"] = calls("construct")
        out["core.construct_busy_s"] = stage("construct")
        out["core.busy_share"] = (stage("construct") + stage("repair")) / window
        out["core.construct_ms_p50"] = _ratio(stage("construct"), calls("construct")) * 1e3
        events_matched = delta.get("batch_events", 0)
    else:
        construct = recorder.durations("core:construct", opened.position, closed.position)
        out["core.construct_ms_p50"] = statistics.median(construct) * 1e3 if construct else 0.0
        out["core.cells_kept_ratio"] = _ratio(
            closed.cells_kept - opened.cells_kept,
            closed.cells_examined - opened.cells_examined,
        )
        events_matched = closed.events_matched - opened.events_matched
        out["index.impact_index.hit_ratio"] = _ratio(
            delta.get("event_arrival_rounds", 0),
            closed.be_matching_pairs - opened.be_matching_pairs,
        )
    out["index.subscription_index.match_us_per_event"] = (
        _ratio(out["index.subscription_index.match_busy_s"], events_matched) * 1e6
    )

    grid = run.server.grid
    out.update(wire.codec_costs(run.shipped_regions[-1500:], run.notified[-1500:], grid))
    out["bitmap.encode_calls"] = delta.get("constructions", 0) + delta.get("repairs", 0)

    clients = [member.client for member in run.members.values()]
    client_calls = sum(
        t.calls for name, t in totals.items() if name.startswith("system.client:")
    )
    out["system.client.apply_calls"] = client_calls
    out["system.client.apply_busy_s"] = _layer_self(totals, "system.client")
    out["system.client.duplicates_suppressed"] = sum(c.duplicates_suppressed for c in clients)
    out["system.client.seq_gaps"] = sum(c.seq_gaps for c in clients)

    fanout = totals.get("system.sharding:fanout", _NONE)
    out["system.sharding.fanout_calls"] = fanout.calls
    out["system.sharding.fanout_wait_s"] = fanout.busy
    if run.scenario.shards:
        out["system.sharding.coordinator_self_s"] = _layer_self(totals, "system.server")
        records = list(run.server.subscribers.values())
        out["system.sharding.multi_homed_share"] = _ratio(
            sum(1 for record in records if len(record.homes) > 1), len(records)
        )
        loads = run.shard_loads
        out["system.sharding.load_imbalance"] = _ratio(max(loads), sum(loads) / len(loads))
        applied = sum(len(got) for got in run.delivered_at.values())
        out["system.sharding.merge_dropped"] = counters_after["notifications"] - applied
        out["system.sharding.worker_crashes"] = run.worker_crashes
        out.update(_journal_replay(run))
        out["system.journal.replay_records_per_s"] = _ratio(replayed, run.replay_s)

    accounted = sum(t.self_time for t in totals.values())
    out["bench.reconcile_gap_share"] = (window - accounted) / window
    out["bench.driver_self_s"] = _layer_self(totals, "bench")
    out["bench.window_s"] = window
    out["bench.host_speed"] = run.speed.factor(run.window_started, run.window_ended)
    return out


def _journal_replay(run: Lockstep) -> Dict[str, float]:
    """Append cost and snapshot-write cost, replayed from the run's own
    journal files into a scratch journal (the workers' journals have no
    seam the coordinator's process could time)."""
    append_times, snapshot_times = [], []
    scratch = tempfile.mkdtemp(prefix="replay-", dir=run.workdir)
    try:
        target = Journal(os.path.join(scratch, "journal"))
        for band in sorted(os.listdir(run.journal_dir)):
            path = os.path.join(run.journal_dir, band)
            if not os.path.isdir(path):
                continue
            source = Journal(path)
            try:
                for record in source.records():
                    started = perf_counter()
                    target.append(record)
                    append_times.append(perf_counter() - started)
                snapshot = source.read_snapshot()
                if snapshot is not None:
                    started = perf_counter()
                    target.write_snapshot(snapshot[1], snapshot[0])
                    snapshot_times.append(perf_counter() - started)
            finally:
                source.close()
        target.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        # the mean: half the records are expiry markers of a few bytes,
        # and a median would report those
        "system.journal.append_us_per_record": (
            statistics.mean(append_times) * 1e6 if append_times else 0.0
        ),
        "system.journal.snapshot_write_s": (
            statistics.median(snapshot_times) if snapshot_times else 0.0
        ),
    }


def fanout_layers(run: Fanout) -> Dict[str, float]:
    """Every per-layer metric of one traced ``fanout_tcp`` run."""
    out: Dict[str, float] = {}
    summary = run.child_summary
    window = run.window_s
    totals = {
        name: Total(calls, busy, self_time)
        for name, (calls, busy, self_time) in summary.get("totals", {}).items()
    }
    delta = run.window_stats
    _span_layers(totals, window, out)
    _counter_layers(delta, out)
    construct = summary.get("construct_s", [])
    out["core.construct_ms_p50"] = statistics.median(construct) * 1e3 if construct else 0.0
    out["core.cells_kept_ratio"] = _ratio(
        summary.get("cells_kept", 0), summary.get("cells_examined", 0)
    )
    out["index.impact_index.hit_ratio"] = _ratio(
        delta.get("event_arrival_rounds", 0), summary.get("be_matching_pairs", 0)
    )
    out["index.subscription_index.match_us_per_event"] = (
        _ratio(out["index.subscription_index.match_busy_s"], summary.get("events_matched", 0)) * 1e6
    )
    out.update(
        wire.codec_costs(run.captured_regions, run.captured_notifications, run.grid)
    )
    out["bitmap.encode_calls"] = delta.get("constructions", 0) + delta.get("repairs", 0)

    out["system.network.frames_in"] = run.frames_in
    out["system.network.frames_out"] = run.frames_out
    out["system.network.bytes_out"] = delta.get("wire_bytes_down", 0)
    out["system.network.dispatch_busy_s"] = delta.get("span:dispatch", 0.0)
    out["system.network.drain_wait_s"] = delta.get("span:drain", 0.0)
    out["system.network.server_cpu_us_per_delivery"] = (
        _ratio(run.closed["cpu_s"], run.closed["deliveries"]) * 1e6
    )
    out["system.network.deliveries_per_s"] = _ratio(
        run.closed["deliveries"], run.closed["elapsed"]
    )
    out["system.network.notify_p99_ms"] = percentile(run.notify_latencies, 0.99) * 1e3
    out["system.network.region_p50_ms"] = percentile(run.region_latencies, 0.50) * 1e3
    out["system.network.region_p99_ms"] = percentile(run.region_latencies, 0.99) * 1e3
    out["system.network.loadgen_late_p99_ms"] = percentile(run.late_by, 0.99) * 1e3

    clients = run.clients.values()
    out["system.client.apply_calls"] = run.apply_calls
    out["system.client.apply_busy_s"] = run.apply_busy_s
    out["system.client.duplicates_suppressed"] = sum(c.duplicates_suppressed for c in clients)
    out["system.client.seq_gaps"] = sum(c.seq_gaps for c in clients)
    out["system.sharding.worker_crashes"] = run.worker_crashes

    # spans in the child cover the core; its remaining process time is the
    # network front-end, the codec and the event loop, and what is left of
    # the window after that the child spent off the CPU
    accounted = sum(t.self_time for t in totals.values())
    child_cpu = summary.get("window_cpu_s", 0.0)
    out["system.network.unspanned_cpu_s"] = max(0.0, child_cpu - accounted)
    out["bench.reconcile_gap_share"] = (window - max(child_cpu, accounted)) / window
    out["bench.window_s"] = window
    out["bench.host_speed"] = run.speed.factor(*run.closed["interval"])
    return out
