"""``fanout_tcp``: the one workload that crosses sockets.

An ``ElapsTCPServer`` runs in a child process (:mod:`bench.tcp_child`); the
load generator runs here, on one thread and **two connections**: a
publisher, and a gateway that multiplexes every subscriber — an
*audience* that every published event matches, plus a few *commuters*
whose location reports keep large region frames in the same send queue
as the small notification frames.

Phase 1 is an open loop: batches go out on a fixed schedule whatever the
server does, and a notification's latency runs from its batch's *due*
time to the moment the gateway client has applied it.  Phase 2 is a
closed loop with a small window of batches in flight; its clock stops
when the last expected notification is applied and a ``StatsRequest``
fence (it queues behind the publishes) has come back.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Set

from repro import Event, Grid, Point
from repro.system import ClientConfig, ElapsNetworkClient, MobileClient, Notification

from . import ROOT, inputs, wire
from .calibrate import HostSpeed
from .lockstep import peak_rss_mb
from .tcp_child import TIMESTAMP_SECONDS

_ZERO = Point(0.0, 0.0)
_ID_MASK = 0xFFFFFFFF
_CENTRE = Point(25_000.0, 25_000.0)
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: gateway reconnect storms per recovery (the median counts).  One storm
#: reads within a tenth of the others of its run; at three per run the
#: middle half of ten runs spread over 0.14–0.29 of the median.
RECONNECTS = 7
#: both phases are read as the median over slices this long, each scaled
#: by the host-speed samples taken inside it, see :meth:`Fanout._slices`
SLICE_SECONDS = 0.25
#: the reader waits on the socket for as long as the run lasts
_CLIENT_CONFIG = ClientConfig(receive_timeout=3600.0)


@dataclass(frozen=True)
class FanoutScenario:
    """The fixed sizes of ``fanout_tcp``."""

    audience: int = 100
    commuters: int = 32
    corpus: int = 1000
    #: events per publish frame
    batch: int = 8
    #: open-loop rate, events per second: a sixth of what the closed loop
    #: sustains, so that the latency is service time and not the backlog
    #: of whichever second the host was slow (at a third, three runs in
    #: ten read a median of 50–88 ms against 33 ms for the rest)
    rate: float = 40.0
    #: batches in flight in the closed loop
    window: int = 4
    grid_n: int = 120
    max_cells: int = 200
    #: events land within ``venue_m`` of the centre, the audience stands
    #: there too, and ``audience_radius`` covers the venue twice over — so
    #: every event matches every audience member, wherever it falls
    venue_m: float = 1000.0
    audience_radius: float = 3000.0
    commuter_radius: float = 2000.0
    send_queue: int = 16384
    #: set-ups per plain run (``setup_s`` is their median)
    setups: int = 3

    def scaled(self, scale: float) -> "FanoutScenario":
        if scale >= 1.0:
            return self
        return dataclasses.replace(
            self,
            audience=max(4, int(self.audience * scale)),
            commuters=max(2, int(self.commuters * scale)),
            corpus=max(80, int(self.corpus * scale)),
        )


def percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Fanout:
    """One ``fanout_tcp`` run.  Same surface as :class:`bench.lockstep.Lockstep`."""

    def __init__(self, scenario: FanoutScenario, seed: int, trace: bool = False) -> None:
        self.scenario = scenario
        self.seed = seed
        self.trace = trace
        self.grid = Grid(scenario.grid_n, inputs.SPACE)
        generator = inputs.world()
        self._rng = random.Random(f"{inputs.WORLD_SEED}-audience")
        self.audience_ids = list(range(scenario.audience))
        self.commuter_ids = list(
            range(scenario.audience, scenario.audience + scenario.commuters)
        )
        self.subscriptions = {
            sub_id: inputs.broadcast_subscription(sub_id, scenario.audience_radius)
            for sub_id in self.audience_ids
        }
        for sub in inputs.subscriptions(
            generator, inputs.WORLD_SEED, scenario.commuters,
            (scenario.commuter_radius, scenario.commuter_radius),
            start_id=scenario.audience,
        ):
            self.subscriptions[sub.sub_id] = sub
        self.places = {sub_id: self._venue_point() for sub_id in self.audience_ids}
        self._rng = random.Random(f"{seed}-venue")
        self._templates = inputs.event_templates(generator, seed, "published", start_id=1)
        self.routes: List = []
        self.loop = asyncio.new_event_loop()
        self.child: Optional[subprocess.Popen] = None
        self.child_summary: Dict = {}
        self.failures: List[str] = []
        self.worker_crashes = 0
        self.speed = HostSpeed()

    def _venue_point(self) -> Point:
        rng = self._rng
        while True:
            dx = rng.uniform(-1.0, 1.0)
            dy = rng.uniform(-1.0, 1.0)
            if dx * dx + dy * dy <= 1.0:
                venue = self.scenario.venue_m
                return Point(_CENTRE.x + dx * venue, _CENTRE.y + dy * venue)

    def prepare_routes(self, ticks: int) -> None:
        """Draw the commuters' routes (input generation, not set-up)."""
        self.routes = inputs.commuter_routes(
            inputs.WORLD_SEED, self.scenario.commuters, ticks, 60.0
        )

    # ------------------------------------------------------------------
    # Set-up: child process, two connections, every subscribe answered
    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.close_server()
        self.loop.run_until_complete(self._calibrated(self._setup()))

    async def _setup(self) -> None:
        scenario = self.scenario
        self.child = subprocess.Popen(
            [
                sys.executable, "-m", "bench.tcp_child",
                "--seed", str(self.seed),
                "--corpus", str(scenario.corpus),
                "--grid-n", str(scenario.grid_n),
                "--max-cells", str(scenario.max_cells),
                "--send-queue", str(scenario.send_queue),
                "--trace", str(int(self.trace)),
            ],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = await self.loop.run_in_executor(None, self.child.stdout.readline)
        if not line.startswith("PORT "):
            raise RuntimeError(f"tcp child did not start: {line!r}")
        self.port = int(line.split()[1])
        self.publisher = ElapsNetworkClient("127.0.0.1", self.port, _CLIENT_CONFIG)
        self.gateway = ElapsNetworkClient("127.0.0.1", self.port, _CLIENT_CONFIG)
        await self.publisher.connect()
        await self.gateway.connect()
        # run state
        self.clients: Dict[int, MobileClient] = {}
        self.published: List[int] = []
        self.batch_of: Dict[int, int] = {}
        self.batch_due: List[float] = []
        self.batch_pending: List[int] = []
        #: when the last notification of each completed batch was applied
        self.batch_done: List[float] = []
        self.incomplete = 0
        self.progress = asyncio.Event()
        self.regions_seen: Set[int] = set()
        self.awaiting_region: Dict[int, float] = {}
        self.notify_latencies: List[float] = []
        #: when each of them was applied
        self.notify_applied: List[float] = []
        self.region_latencies: List[float] = []
        self.late_by: List[float] = []
        self.sample_latency = False
        self.apply_calls = 0
        self.apply_busy_s = 0.0
        self.frames_in = 0
        self.frames_out = 0
        self.closing = False
        self.captured_regions: List = []
        self.captured_notifications: List = []
        for sub_id in self.audience_ids:
            self.clients[sub_id] = MobileClient(
                self.subscriptions[sub_id], self.places[sub_id], _ZERO
            )
        for sub_id, route in zip(self.commuter_ids, self.routes):
            self.clients[sub_id] = MobileClient(
                self.subscriptions[sub_id], route.position_at(0), route.velocity_at(0)
            )
        self.reader_task = self.loop.create_task(self._read_gateway())
        for sub_id, client in self.clients.items():
            await self._send(
                self.gateway,
                wire.subscribe_message_for(
                    client.subscription, client.location, client.velocity
                ),
            )
        await self._until(lambda: len(self.regions_seen) == len(self.clients), 60.0,
                          "initial regions")

    async def _send(self, client: ElapsNetworkClient, message) -> None:
        self.frames_in += 1
        await client.send(message)

    async def _until(self, done, timeout: float, what: str) -> bool:
        """Wait for ``done()``, woken by the reader; False (and a recorded
        failure) if it does not happen within ``timeout`` seconds."""
        deadline = perf_counter() + timeout
        while not done():
            self.progress.clear()
            remaining = deadline - perf_counter()
            if remaining <= 0 or self.reader_task.done():
                self.failures.append(f"timed out waiting for {what}")
                return False
            try:
                await asyncio.wait_for(self.progress.wait(), min(remaining, 0.5))
            except asyncio.TimeoutError:
                pass
        return True

    # ------------------------------------------------------------------
    # The gateway client: every frame is applied to a MobileClient
    # ------------------------------------------------------------------
    async def _read_gateway(self) -> None:
        gateway = self.gateway
        while True:
            message = await gateway.receive()
            if message is None:
                if not self.closing:
                    self.failures.append("the server closed the gateway connection")
                self.progress.set()
                return
            self.frames_out += 1
            started = perf_counter()
            self._apply(message, started)
            self.apply_busy_s += perf_counter() - started
            self.apply_calls += 1

    def _apply(self, message, now: float) -> None:
        if isinstance(message, wire.NotificationMessage):
            sub_id = message.sub_id
            event = Event(message.event_id, dict(message.attributes), message.location)
            fresh = self.clients[sub_id].receive_notification(event, message.seq)
            if len(self.captured_notifications) < 2000:
                self.captured_notifications.append(
                    Notification(sub_id, event, 0, message.seq)
                )
            if not fresh or sub_id >= self.scenario.audience:
                return
            batch = self.batch_of.get(message.event_id & _ID_MASK)
            if batch is None:
                return
            if self.sample_latency:
                self.notify_latencies.append(now - self.batch_due[batch])
                self.notify_applied.append(now)
            self.batch_pending[batch] -= 1
            if self.batch_pending[batch] == 0:
                self.batch_done.append(now)
                self.incomplete -= 1
                self.progress.set()
        elif isinstance(message, wire.SafeRegionPush):
            sub_id = message.sub_id
            region = wire.region_from_push(message, self.grid)
            self.clients[sub_id].receive_region(region)
            if len(self.captured_regions) < 2000:
                self.captured_regions.append((sub_id, region))
            reported = self.awaiting_region.pop(sub_id, None)
            if reported is not None:
                self.region_latencies.append(now - reported)
            if sub_id not in self.regions_seen:
                self.regions_seen.add(sub_id)
                self.progress.set()
        elif isinstance(message, wire.SafeRegionDelta):
            self.clients[message.sub_id].apply_region_delta(
                wire.cells_from_delta(message, self.grid)
            )

    # ------------------------------------------------------------------
    # Load generation
    # ------------------------------------------------------------------
    def _next_batch(self, due: float):
        scenario = self.scenario
        index = len(self.batch_due)
        batch = []
        for template in itertools.islice(self._templates, scenario.batch):
            attributes = dict(template.attributes)
            attributes[inputs.ALERT] = 1
            batch.append((template.event_id, attributes, self._venue_point()))
            self.batch_of[template.event_id] = index
            self.published.append(template.event_id)
        self.batch_due.append(due)
        self.batch_pending.append(scenario.batch * scenario.audience)
        self.incomplete += 1
        return batch

    async def _commute(self, started: float) -> None:
        """Move the commuters once per timestamp; report when one leaves its
        region (and no report is already awaiting its answer)."""
        tick = 0
        while True:
            tick += 1
            await asyncio.sleep(max(0.0, started + tick * TIMESTAMP_SECONDS - perf_counter()))
            for sub_id, route in zip(self.commuter_ids, self.routes):
                client = self.clients[sub_id]
                due = client.move_to(route.position_at(tick), route.velocity_at(tick))
                if due and sub_id not in self.awaiting_region:
                    location, velocity = client.report()
                    self.awaiting_region[sub_id] = perf_counter()
                    await self._send(
                        self.gateway, wire.LocationReport(sub_id, location, velocity)
                    )

    async def _calibrate(self) -> None:
        """Sample the reference kernel twenty times a second (2.5 ms each,
        on the load generator's side, which is otherwise mostly waiting)."""
        while True:
            self.speed.sample(charge=False)
            await asyncio.sleep(0.05)

    async def _calibrated(self, operation) -> None:
        calibrate = self.loop.create_task(self._calibrate())
        try:
            await operation
        finally:
            calibrate.cancel()
            await asyncio.gather(calibrate, return_exceptions=True)

    async def _stats(self) -> Dict[str, float]:
        self.frames_in += 1
        snapshot = await self.publisher.request_stats(timeout=60.0)
        if snapshot is None:
            raise RuntimeError("the server closed the publisher connection")
        stats = dict(snapshot.counters_dict())
        for stage, histogram in snapshot.histograms().items():
            stats[f"span:{stage}"] = histogram.total_seconds
        return stats

    def _mark_child(self) -> None:
        """Bracket the measured window in the child's span log."""
        self.child.stdin.write("mark\n")
        self.child.stdin.flush()

    def _child_cpu_s(self) -> float:
        with open(f"/proc/{self.child.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def run(self, seconds: float, counted: bool = True) -> None:
        """Half of ``seconds`` per phase (``counted`` is part of the shared
        surface; the paced phase always runs in full)."""
        self.loop.run_until_complete(self._calibrated(self._run(seconds)))

    async def _run(self, seconds: float) -> None:
        scenario = self.scenario
        commute = self.loop.create_task(self._commute(perf_counter()))
        try:
            # phase 1: open loop on a fixed schedule
            interval = scenario.batch / scenario.rate
            batches = max(2, int(seconds / 2 / interval))
            before = await self._stats()
            self._mark_child()
            self.sample_latency = True
            window_started = started = perf_counter()
            for index in range(batches):
                due = started + index * interval
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.late_by.append(max(0.0, perf_counter() - due))
                self.frames_in += 1
                await self.publisher.publish_batch(self._next_batch(due))
            await self._until(lambda: self.incomplete == 0, 30.0, "phase 1 notifications")
            self.sample_latency = False
            after = await self._stats()
            self.paced = {
                "interval": (started, perf_counter()),
                # the paced phase offers the same load on any host, so
                # memory is read at its end
                "peak_rss_mb": peak_rss_mb([self.child.pid]),
                "ticks": batches * interval / TIMESTAMP_SECONDS,
                "rounds": sum(
                    after[k] - before[k]
                    for k in ("location_update_rounds", "event_arrival_rounds")
                ),
                "bytes_down": after["wire_bytes_down"] - before["wire_bytes_down"],
            }
            # phase 2: closed loop, a small window of batches in flight
            first = len(self.batch_due)
            cpu_before = self._child_cpu_s()
            started = perf_counter()
            while perf_counter() - started < seconds / 2:
                if self.incomplete >= scenario.window:
                    if not await self._until(
                        lambda: self.incomplete < scenario.window, 30.0, "the window"
                    ):
                        break
                self.frames_in += 1
                await self.publisher.publish_batch(self._next_batch(perf_counter()))
            await self._until(lambda: self.incomplete == 0, 30.0, "phase 2 notifications")
            self.final_stats = await self._stats()
            elapsed = perf_counter() - started
            self.window_s = perf_counter() - window_started
            self._mark_child()
            sent = len(self.batch_due) - first
            self.closed = {
                "interval": (started, perf_counter()),
                "events": sent * scenario.batch,
                "deliveries": sent * scenario.batch * scenario.audience,
                "elapsed": elapsed,
                "cpu_s": self._child_cpu_s() - cpu_before,
            }
            self.window_stats = {
                key: self.final_stats[key] - before.get(key, 0)
                for key in self.final_stats
                if isinstance(self.final_stats[key], (int, float))
            }
        finally:
            commute.cancel()
            await asyncio.gather(commute, return_exceptions=True)

    # ------------------------------------------------------------------
    # Recovery: the gateway reconnects and resyncs every subscriber
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """The gateway reconnects and resyncs everyone; sets ``recover_s``
        to the median of ``RECONNECTS`` such storms (one takes about a
        second, too short to read once on this host)."""
        self.recover_s = statistics.median(
            self.speed.reference_seconds(
                lambda: self.loop.run_until_complete(self._calibrated(self._recover()))
            )[0]
            for _ in range(RECONNECTS)
        )
        return 0

    async def _recover(self) -> None:
        self.closing = True
        await self.gateway.close()
        await asyncio.gather(self.reader_task, return_exceptions=True)
        self.closing = False
        self.gateway = ElapsNetworkClient("127.0.0.1", self.port, _CLIENT_CONFIG)
        await self.gateway.connect()
        self.regions_seen = set()
        self.awaiting_region = {}
        self.reader_task = self.loop.create_task(self._read_gateway())
        for sub_id, client in self.clients.items():
            client.reset_connection()
            await self._send(
                self.gateway,
                wire.ResyncMessage(
                    sub_id, client.location, client.velocity, client.received_ids()
                ),
            )
        await self._until(
            lambda: len(self.regions_seen) == len(self.clients), 60.0, "resync regions"
        )

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit(self):
        """Exactly-once and expected-set equality at the gateway client."""
        scenario = self.scenario
        expected = set(self.published)
        checked = 0
        for sub_id, client in self.clients.items():
            if client.duplicates_suppressed:
                self.failures.append(
                    f"sub {sub_id}: {client.duplicates_suppressed} duplicate deliveries"
                )
            if client.seq_gaps:
                self.failures.append(f"sub {sub_id}: {client.seq_gaps} sequence gaps")
            if sub_id < scenario.audience:
                got = {event_id & _ID_MASK for event_id in client.seen_event_ids}
                checked += len(expected)
                if got != expected:
                    self.failures.append(
                        f"sub {sub_id}: missed {len(expected - got)} "
                        f"unexpected {len(got - expected)} of {len(expected)}"
                    )
            else:
                for event in client.received_events:
                    checked += 1
                    if not client.subscription.be_matches(event):
                        self.failures.append(
                            f"sub {sub_id}: event {event.event_id} does not match"
                        )
        stats = self.final_stats
        for counter in (
            "frames_shed", "slow_consumer_disconnects", "connections_refused",
            "push_errors", "malformed_frames", "write_timeouts", "read_timeouts",
            "connection_resets",
        ):
            if stats.get(counter, 0):
                self.failures.append(f"server counted {stats[counter]} {counter}")
        return checked + len(self.batch_due), len(self.failures)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _slices(self, interval):
        """``(since, until, host-speed factor)`` of each quarter second of
        ``interval``.

        In both phases two processes are busy, and when a neighbour takes a
        core for a fraction of a second they slow down further than the
        kernel does.  With one factor over a whole phase the middle half of
        ten runs lay 0.15 of the median apart on the closed loop's rate and
        on the paced latency alike (0.17 and 0.19 in other sets of ten);
        with the median over slices, each scaled by the samples taken
        inside it, 0.09 and 0.05 on the same runs.  A slice in which
        neither sampler got to run is left out.
        """
        started, ended = interval
        count = max(1, int((ended - started) / SLICE_SECONDS))
        width = (ended - started) / count
        for index in range(count):
            since, until = started + index * width, started + (index + 1) * width
            try:
                yield since, until, self.speed.factor(since, until)
            except ValueError:
                continue

    def events_per_s(self) -> float:
        """Phase 2 events per reference second, the median over its slices.
        Call after :meth:`close_server`: the child hands over its
        host-speed samples when it stops, and both sides' are pooled."""
        done = self.batch_done  # in time order: one reader applies them
        return statistics.median(
            (bisect.bisect_left(done, until) - bisect.bisect_left(done, since))
            * self.scenario.batch / ((until - since) * factor)
            for since, until, factor in self._slices(self.closed["interval"])
        )

    def notify_p50_ms(self) -> float:
        """Phase 1 median latency in reference milliseconds: the median
        over its slices of the median of the notifications applied in each.
        After :meth:`close_server`, as above."""
        applied = self.notify_applied
        medians = []
        for since, until, factor in self._slices(self.paced["interval"]):
            first, last = bisect.bisect_left(applied, since), bisect.bisect_left(applied, until)
            if last > first:
                medians.append(
                    statistics.median(self.notify_latencies[first:last]) * factor * 1e3
                )
        return statistics.median(medians)

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end numbers; after :meth:`close_server`, as above."""
        subscribers = len(self.clients)
        return {
            "events_per_s": self.events_per_s(),
            "notify_p50_ms": self.notify_p50_ms(),
            "peak_rss_mb": self.paced["peak_rss_mb"],
            "rounds_per_sub_kts": self.paced["rounds"] / subscribers / self.paced["ticks"] * 1e3,
            "bytes_down_per_sub_ts": self.paced["bytes_down"] / subscribers / self.paced["ticks"],
        }

    def close_server(self) -> None:
        """Stop the connections and the child; keep the child's summary."""
        if self.child is None:
            return
        self.loop.run_until_complete(self._close())
        self.child = None

    async def _close(self) -> None:
        self.closing = True
        for client in (getattr(self, "gateway", None), getattr(self, "publisher", None)):
            if client is not None and client.writer is not None:
                await client.close()
        reader = getattr(self, "reader_task", None)
        if reader is not None:
            reader.cancel()
            await asyncio.gather(reader, return_exceptions=True)
        child = self.child
        try:
            out, _ = await self.loop.run_in_executor(
                None, lambda: child.communicate("stop\n", timeout=30)
            )
            lines = out.strip().splitlines()
            if lines:
                self.child_summary = json.loads(lines[-1])
                self.speed.samples.extend(
                    map(tuple, self.child_summary.pop("speed_samples", []))
                )
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            self.failures.append("the tcp child did not stop")
        if child.returncode:
            self.worker_crashes += 1
            self.failures.append(f"the tcp child exited with {child.returncode}")

    def close(self) -> None:
        self.close_server()
        self.loop.close()
