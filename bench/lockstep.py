"""The in-process workloads: one driver thread, a simulated clock, a closed loop.

``commute_sim``, ``event_storm`` and ``durable_fleet`` are three
:class:`Scenario` values run by the same :class:`Lockstep` harness.  One
tick is the paper's timestamp: subscribers move (and report when they
leave their safe region), one ``publish_batch`` of events arrives, due
events expire, and — on ``event_storm`` — a few subscribers are replaced.
The next tick starts when the previous one has been applied at every
client, so a slower server simply completes fewer ticks.

The clients are real :class:`~repro.system.MobileClient` state machines:
they hold the shipped regions, apply repair deltas, answer pings and keep
the delivered events, and everything the audit checks is read from them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from time import perf_counter
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import Event, Point, Subscription, Transport
from repro.system import JournalSpec, MobileClient, WorkerCrashed

from . import inputs, serving
from .calibrate import HostSpeed
from .trace import Recorder

_ZERO = Point(0.0, 0.0)
_NO_SPAN = contextlib.nullcontext()
#: set-up and recovery take a host-speed sample every this many subscribers
_SAMPLE_EVERY = 6
#: cold restarts, and resync storms, per recovery on a journaled fleet.
#: Three of each left ``recover_s`` spread over a quarter to a third of its
#: median from run to run; at eight and five the middle half of ten runs
#: lies 0.06–0.14 of the median apart (``bench/README.md``, Baseline).
RESTARTS = 8
RESYNCS = 5


@dataclass(frozen=True)
class Scenario:
    """The fixed sizes of one in-process workload."""

    subscribers: int
    #: metres per tick; 0 keeps every subscriber where it subscribed
    speed: float
    radius: Tuple[float, float]
    corpus: int
    #: events per tick, published as one ``publish_batch``
    batch: int
    ttl: int
    #: subscribers replaced (unsubscribe + subscribe) after every tick
    churn: int
    grid_n: int
    max_cells: int
    #: 0 runs one ``ElapsServer``; K runs a journaled K-process fleet
    shards: int
    snapshot_every: int
    #: ticks per unit; a unit's events and replacement subscribers are
    #: generated before it runs, outside the measured time
    unit_ticks: int
    #: the exact counts (rounds, bytes) are read after this many ticks,
    #: which every run completes, so they repeat for a seed on any host
    count_ticks: int
    #: ticks run before the window opens: right after set-up every
    #: subscriber sits in a fresh region and nothing reports, which is not
    #: the state a serving system is in
    warmup_ticks: int = 0
    #: completeness is audited on every n-th tick (moving subscribers)
    audit_every: int = 10
    #: set-ups per plain run (``setup_s`` is their median)
    setups: int = 3

    def scaled(self, scale: float) -> "Scenario":
        """Smaller populations for the smoke test; the tick shape is kept."""
        if scale >= 1.0:
            return self
        return dataclasses.replace(
            self,
            subscribers=max(6, int(self.subscribers * scale)),
            corpus=max(80, int(self.corpus * scale)),
            count_ticks=max(4, int(self.count_ticks * scale)),
            unit_ticks=max(2, int(self.unit_ticks * scale)),
            warmup_ticks=int(self.warmup_ticks * scale),
            audit_every=2,
        )


@dataclass
class _Member:
    """One subscriber over its lifetime in the run."""

    subscription: Subscription
    position: Point
    client: MobileClient
    joined: int
    left: Optional[int] = None


def _row(event: Event) -> tuple:
    return (
        event.event_id, event.location.x, event.location.y, event.arrived_at,
        event.expires_at, tuple(event.attributes.items()),
    )


class _LazyEvents:
    """Event objects rebuilt from log rows, only for the rows the audit's
    distance prefilter lets through."""

    def __init__(self, log: List[tuple]) -> None:
        self._log = log
        self._built: Dict[int, Event] = {}
        self._index: Optional[Dict[int, int]] = None

    def __getitem__(self, i: int) -> Event:
        event = self._built.get(i)
        if event is None:
            event_id, x, y, arrived, expires, attributes = self._log[i]
            event = self._built[i] = Event(
                event_id, dict(attributes), Point(x, y), arrived, expires
            )
        return event

    def by_id(self, event_id: int) -> Event:
        if self._index is None:
            self._index = {row[0]: i for i, row in enumerate(self._log)}
        return self[self._index[event_id]]


class _ClientTransport(Transport):
    """The in-process wire: pings and pushes go to the client objects."""

    def __init__(self, run: "Lockstep") -> None:
        self._run = run

    def locate(self, sub_id: int):
        return self._run.members[sub_id].client.answer_ping()

    def ship_region(self, sub_id: int, region) -> None:
        run = self._run
        with run.span("system.client:apply"):
            run.members[sub_id].client.receive_region(region)
        if run.recorder is not None and len(run.shipped_regions) < 4000:
            run.shipped_regions.append((sub_id, region))

    def ship_delta(self, sub_id: int, removed, region) -> None:
        run = self._run
        with run.span("system.client:apply"):
            if not run.members[sub_id].client.apply_region_delta(removed):
                run.members[sub_id].client.receive_region(region)


class Lockstep:
    """One in-process workload run: set-up, timed window, recovery, audit."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int,
        workdir: str,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self.generator = inputs.world()
        self.corpus = inputs.staggered_corpus(
            self.generator, seed, scenario.corpus, scenario.ttl
        )
        #: where the city's events cluster: residents settle near these
        self._landmarks = inputs.staggered_corpus(
            self.generator, inputs.WORLD_SEED, 1000, None
        )
        self.initial_subscriptions = inputs.subscriptions(
            self.generator, inputs.WORLD_SEED, scenario.subscribers, scenario.radius
        )
        self._templates = inputs.event_templates(
            self.generator, seed, "arrivals", start_id=10_000_000
        )
        self.server = None
        self.members: Dict[int, _Member] = {}
        self.shipped_regions: List = []
        self.notified: List = []
        self.worker_crashes = 0
        self.journal_dir: Optional[str] = None
        self.failures: List[str] = []
        self.operations = 0
        # the fleet's work runs on two cores at once; so must the probe
        self.speed = HostSpeed(paired=bool(scenario.shards))
        self._reset_run_state()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def span(self, name: str):
        """A recorder span in a traced run, a no-op otherwise."""
        return self.recorder.span(name) if self.recorder is not None else _NO_SPAN

    def _reset_run_state(self) -> None:
        scenario = self.scenario
        self.tick = 0
        #: every event the server was ever given, as flat rows rather than
        #: Event objects: tens of thousands of retained objects would slow
        #: the collector of the very process being timed
        self.event_log: List[tuple] = [_row(event) for event in self.corpus]
        self.delivered_at: Dict[int, Dict[int, int]] = {}
        self.duplicates = 0
        self._next_sub_id = scenario.subscribers
        #: live subscriber ids, longest-standing first
        self._live: Deque[int] = deque()
        self.batch_latencies: List[float] = []
        self.window_s = 0.0
        self.window_events = 0
        self.replay_s = 0.0
        self.counts_at_prefix: Optional[Dict[str, float]] = None

    def _build_server(self):
        scenario = self.scenario
        if not scenario.shards:
            server = serving.single_server(
                self.generator, scenario.grid_n, scenario.max_cells,
                float(scenario.batch), tracer=self.recorder,
            )
        else:
            if self.journal_dir is None:
                self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=self.workdir)
            spec = JournalSpec(self.journal_dir, snapshot_every=scenario.snapshot_every)
            _freeze_heap()
            server = serving.process_fleet(
                self.generator, scenario.grid_n, scenario.max_cells,
                float(scenario.batch), scenario.shards, spec, tracer=self.recorder,
            )
        server.transport = _ClientTransport(self)
        if self.recorder is not None:
            server = self.recorder.wrap_server(server)
        return server

    def _apply(self, notifications, tick: int) -> None:
        with self.span("system.client:apply"):
            for notification in notifications:
                sub_id = notification.sub_id
                fresh = self.members[sub_id].client.receive_notification(
                    notification.event, notification.seq
                )
                if fresh:
                    self.delivered_at[sub_id][notification.event.event_id] = tick
                else:
                    self.duplicates += 1
        if self.recorder is not None and len(self.notified) < 4000:
            self.notified.extend(notifications[: 4000 - len(self.notified)])

    def _join(self, subscription: Subscription, position: Point, velocity: Point, tick: int) -> None:
        client = MobileClient(subscription, position, velocity)
        self.members[subscription.sub_id] = _Member(subscription, position, client, tick)
        self._live.append(subscription.sub_id)
        self.delivered_at[subscription.sub_id] = {}
        notifications, region = self.server.subscribe(
            subscription, position, velocity, now=tick
        )
        self._apply(notifications, tick)
        with self.span("system.client:apply"):
            client.receive_region(region)
        self.operations += 1

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Build the server, load the corpus, answer every initial subscribe."""
        self.close_server()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)
            self.journal_dir = None
        self._reset_run_state()
        self.members = {}
        scenario = self.scenario
        self.server = self._build_server()
        self.server.bootstrap(self.corpus)
        if scenario.speed:
            starts = [(route.position_at(0), route.velocity_at(0)) for route in self.routes]
        else:
            places = inputs.stationary_positions(
                inputs.WORLD_SEED, self._landmarks, scenario.subscribers
            )
            starts = [(place, _ZERO) for place in places]
        for index, (subscription, (place, velocity)) in enumerate(
            zip(self.initial_subscriptions, starts)
        ):
            self._join(subscription, place, velocity, 0)
            if index % _SAMPLE_EVERY == 0:
                self.speed.sample()

    def prepare_routes(self, ticks: int) -> None:
        """Draw the commuters' routes (input generation, not set-up)."""
        scenario = self.scenario
        self.routes = (
            inputs.commuter_routes(
                inputs.WORLD_SEED, scenario.subscribers, ticks, scenario.speed
            )
            if scenario.speed
            else []
        )
        self._route_ticks = ticks

    # ------------------------------------------------------------------
    # The timed window
    # ------------------------------------------------------------------
    def _churn_pool(self, count: int):
        """``count`` replacement subscribers, drawn outside the timed unit."""
        start = self._next_sub_id
        self._next_sub_id += count
        subscriptions = inputs.subscriptions(
            self.generator, inputs.WORLD_SEED, count, self.scenario.radius,
            start_id=start, stream=f"churn-{start}",
        )
        places = inputs.stationary_positions(
            inputs.WORLD_SEED, self._landmarks, count, stream=f"churn-places-{start}"
        )
        return list(zip(subscriptions, places))

    def _step(self, tick: int, batch, replacements, warm: bool = True) -> None:
        server = self.server
        scenario = self.scenario
        with self.span("bench:driver"):
            if scenario.speed:
                with self.span("system.client:move"):
                    for member, route in zip(self._initial_members, self.routes):
                        client = member.client
                        if not client.move_to(route.position_at(tick), route.velocity_at(tick)):
                            continue
                        location, velocity = client.report()
                        notifications, region = server.report_location(
                            member.subscription.sub_id, location, velocity, now=tick
                        )
                        self._apply(notifications, tick)
                        with self.span("system.client:apply"):
                            client.receive_region(region)
                        self.operations += 1
            started = perf_counter()
            notifications = server.publish_batch(batch, tick)
            self._apply(notifications, tick)
            if warm:
                self.batch_latencies.append(perf_counter() - started)
            server.expire_due_events(tick)
            for subscription, place in replacements:
                # the longest-standing subscriber leaves, a new one joins
                leaving = self.members[self._live.popleft()]
                server.unsubscribe(leaving.subscription.sub_id)
                leaving.left = tick
                self._join(subscription, place, _ZERO, tick)
            self.operations += 1

    def run(self, seconds: float, counted: bool = True) -> None:
        """Warm up, then run whole units until ``seconds`` of measured time
        have passed and (unless ``counted`` is off, as in a traced run,
        which reports no counts) the counted prefix is complete."""
        scenario = self.scenario
        self._least_ticks = scenario.count_ticks if counted else 0
        self._initial_members = [
            self.members[sub.sub_id] for sub in self.initial_subscriptions
        ]
        self.window_opened = None
        self.window_started = None
        self._run_units(seconds)
        self.window_ended = perf_counter()
        if self.recorder is not None:
            self.window_closed = self._trace_point()
            if scenario.shards:
                # per-band event load; the restart in recover() forgets it
                self.shard_loads = self.server.shard_loads()

    def _run_units(self, seconds: float) -> None:
        scenario = self.scenario
        while self.window_s < seconds or self.tick < self._least_ticks:
            if scenario.speed and self.tick + scenario.unit_ticks >= self._route_ticks:
                break  # routes exhausted: a faster host than planned for
            warm = self.tick >= scenario.warmup_ticks
            if warm and self.window_started is None:
                self.window_started = perf_counter()
                if self.recorder is not None:
                    self.window_opened = self._trace_point()
            self._advance(scenario.unit_ticks, warm)

    def _advance(self, ticks: int, measured: bool) -> None:
        """Run ``ticks`` timestamps; their events and replacement
        subscribers are made first, outside any clock."""
        scenario = self.scenario
        unit = []
        for tick in range(self.tick + 1, self.tick + ticks + 1):
            batch = [
                inputs.stamp(template, tick, scenario.ttl)
                for template in itertools.islice(self._templates, scenario.batch)
            ]
            self.event_log.extend(map(_row, batch))
            unit.append((tick, batch, self._churn_pool(scenario.churn)))
        for tick, batch, replacements in unit:
            started = perf_counter()
            self._step(tick, batch, replacements, measured)
            elapsed = perf_counter() - started
            if measured:
                self.window_s += elapsed
                self.window_events += scenario.batch
                # untimed: how fast is the host right now?
                self.speed.sample()
            if tick == scenario.count_ticks:
                self.counts_at_prefix = self._counts()
        self.tick += ticks

    def _trace_point(self):
        """Where the span log, the program's counters and its own stage
        histograms stand — taken at both ends of a traced window."""
        registry = self.server.merged_registry()
        stages = {
            stage: (histogram.count, histogram.total_seconds)
            for stage, histogram in registry.tracer.histograms.items()
        }
        return self.recorder.mark(), self.server.merged_metrics().as_dict(), stages

    def _counts(self) -> Dict[str, float]:
        counters = self.server.merged_metrics().as_dict()
        return {
            "rounds": counters["location_update_rounds"] + counters["event_arrival_rounds"],
            "bytes_down": counters["wire_bytes_down"],
            # read here, not at the end: how far a run gets past the
            # prefix depends on the host, and memory must not
            "peak_rss_mb": peak_rss_mb(
                [os.getpid()]
                + [pid for pid in child_pids() if pid != self.speed.peer_pid]
            ),
        }

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _restart(self) -> int:
        """Cold restart of a journaled fleet on the same directory."""
        self.close_server()
        self.server = self._build_server()
        started = perf_counter()
        replayed = self.server.recover()
        self.replay_s = perf_counter() - started
        return replayed

    def _resync_everyone(self) -> None:
        for index, member in enumerate(self.members.values()):
            if member.left is not None:
                continue
            if index % _SAMPLE_EVERY == 0:
                self.speed.sample()
            client = member.client
            client.reset_connection()
            notifications, region = self.server.resync(
                member.subscription.sub_id, client.location, client.velocity,
                client.received_ids(), now=self.tick,
            )
            self._apply(notifications, self.tick)
            client.receive_region(region)
            self.operations += 1

    def recover(self) -> int:
        """Bring every client back; sets ``recover_s`` (reference seconds)
        and returns the journal records replayed.

        Everywhere: one ``resync`` per connected client, answered with a
        fresh region.  On a journaled fleet, first a cold restart — close,
        rebuild on the same directory, ``recover()``.  On a fleet both
        steps run mostly inside the worker processes and over their pipes,
        where a host-speed sample says little: with the harness's heap
        frozen (see :func:`_freeze_heap`) twelve restarts in a row still
        read 0.33–0.93 s for the same 64 records, eight resync storms
        1.0–1.5 s.  Both are idempotent, so the restart is done
        ``RESTARTS`` times, the storm ``RESYNCS`` times, and the medians
        are what counts.
        """
        replayed = 0
        restart_s = 0.0
        if self.scenario.shards:
            # How much journal a restart replays depends on how long ago
            # the last snapshot was, which would depend on how many
            # timestamps the host got through.  So: snapshot, then half a
            # snapshot interval of timestamps (a band logs a publish and an
            # expiry per timestamp) — the expected tail of a crash at a
            # random moment, and the same on every run.
            self.server.snapshot()
            self._advance(self.scenario.snapshot_every // 4, measured=False)
            cycles = []
            for _ in range(RESTARTS):
                seconds, replayed = self.speed.reference_seconds(self._restart)
                cycles.append(seconds)
            restart_s = statistics.median(cycles)
        resync_s = statistics.median(
            self.speed.reference_seconds(self._resync_everyone)[0]
            for _ in range(RESYNCS if self.scenario.shards else 1)
        )
        self.recover_s = restart_s + resync_s
        return replayed

    # ------------------------------------------------------------------
    # Audit against the brute-force specification
    # ------------------------------------------------------------------
    def audit(self) -> Tuple[int, int]:
        """``(pairs checked, failures)`` of the client-visible deliveries.

        Definition 5 by brute force — numpy narrows each subscriber to the
        events inside its circle, then ``Subscription.matches`` decides —
        so no index of the program takes part in its own audit.
        """
        log = self.event_log
        xs = np.array([row[1] for row in log])
        ys = np.array([row[2] for row in log])
        arrived = np.array([row[3] for row in log])
        expires = np.array([row[4] for row in log])
        events = _LazyEvents(log)
        checked = 0
        failures = self.failures
        if self.duplicates:
            failures.append(f"{self.duplicates} duplicate notifications reached a client")
        for sub_id, member in self.members.items():
            subscription = member.subscription
            got = self.delivered_at[sub_id]
            client = member.client
            if set(got) != client.seen_event_ids:
                failures.append(f"sub {sub_id}: client log and client state disagree")
            if client.seq_gaps:
                failures.append(f"sub {sub_id}: {client.seq_gaps} sequence gaps")
            if self.scenario.speed:
                checked += self._audit_mover(member, got, events, xs, ys, arrived, expires)
                continue
            last = member.left if member.left is not None else self.tick
            reach = subscription.radius + 1e-6
            near = (
                (np.hypot(xs - member.position.x, ys - member.position.y) <= reach)
                & (arrived <= last)
                & (expires > member.joined)
            )
            expected = {
                log[i][0]
                for i in np.flatnonzero(near)
                if subscription.matches(events[i], member.position)
            }
            checked += len(expected | set(got))
            if expected != set(got):
                failures.append(
                    f"sub {sub_id}: missed {sorted(expected - set(got))[:3]} "
                    f"unexpected {sorted(set(got) - expected)[:3]}"
                )
        checked += self._audit_regions()
        return checked, len(failures)

    def _audit_mover(self, member, got, events, xs, ys, arrived, expires) -> int:
        subscription = member.subscription
        route = self.routes[subscription.sub_id]
        checked = 0
        # soundness: every delivery matched where the subscriber stood
        for event_id, tick in got.items():
            checked += 1
            if not subscription.matches(events.by_id(event_id), route.position_at(tick)):
                self.failures.append(
                    f"sub {subscription.sub_id}: event {event_id} delivered at tick "
                    f"{tick} does not match there"
                )
        # completeness, on sampled ticks: every live matching event inside
        # the circle has been delivered by the end of that tick
        reach = subscription.radius + 1e-6
        ticks = sorted(set(range(0, self.tick + 1, self.scenario.audit_every)) | {self.tick})
        for tick in ticks:
            at = route.position_at(tick)
            near = (
                (np.hypot(xs - at.x, ys - at.y) <= reach)
                & (arrived <= tick)
                & (expires > tick)
            )
            for i in np.flatnonzero(near):
                event = events[i]
                if not subscription.matches(event, at):
                    continue
                checked += 1
                if got.get(event.event_id, tick + 1) > tick:
                    self.failures.append(
                        f"sub {subscription.sub_id}: event {event.event_id} inside "
                        f"the circle at tick {tick} was not delivered by then"
                    )
        return checked

    def _audit_regions(self) -> int:
        """Client-held region == server-held region, and the server's
        delivered set == what the client saw, for every live subscriber."""
        checked = 0
        for sub_id, member in self.members.items():
            if member.left is not None:
                continue
            checked += 1
            held = member.client.safe_region
            record = self.server.subscribers[sub_id]
            served = record.safe
            if (
                held is None
                or served is None
                or held.complement != served.complement
                or frozenset(held.cells) != frozenset(served.cells)
            ):
                self.failures.append(f"sub {sub_id}: client and server regions differ")
            if self.server.delivered_ids(sub_id) != frozenset(member.client.seen_event_ids):
                self.failures.append(f"sub {sub_id}: server and client delivered sets differ")
        return checked

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def events_per_s(self) -> float:
        """Events per reference second over the window."""
        factor = self.speed.factor(self.window_started, self.window_ended)
        return self.window_events / (self.window_s * factor)

    def end_to_end(self) -> Dict[str, float]:
        """The window's end-to-end numbers (set-up is the caller's to time)."""
        scenario = self.scenario
        subscribers = scenario.subscribers
        counts = self.counts_at_prefix
        factor = self.speed.factor(self.window_started, self.window_ended)
        return {
            "events_per_s": self.events_per_s(),
            "notify_p50_ms": statistics.median(self.batch_latencies) * factor * 1e3,
            "peak_rss_mb": counts["peak_rss_mb"],
            "rounds_per_sub_kts": counts["rounds"] / subscribers / scenario.count_ticks * 1e3,
            "bytes_down_per_sub_ts": counts["bytes_down"] / subscribers / scenario.count_ticks,
        }

    def close_server(self) -> None:
        """Close the server (and its worker processes), if one is up."""
        if self.server is not None:
            try:
                self.server.close()
            except WorkerCrashed:
                self.worker_crashes += 1
            self.server = None

    def close(self) -> None:
        """Release everything the run holds outside the interpreter."""
        self.close_server()
        self.speed.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


def _freeze_heap() -> None:
    """Keep the harness's objects out of the fleet workers' collector.

    The workers are forked from this process and inherit its heap: the
    event log, every client, the previous fleet's remains.  Whether a
    worker then runs a full collection during a restart hung on where the
    inherited allocation counters stood at the fork — and one that did
    walked the whole inherited heap, copying every page it touched: the
    same 64-record replay took 0.5 or 1.2 CPU seconds and 4 000 or 25 000
    page faults.  A deployment forks its workers from a process that holds
    no load generator, so: collect, then move what is left to the
    permanent generation (``gc.freeze`` exists for exactly this) before
    every fork.  The workers' collector still runs, on their own objects.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of the given processes, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def child_pids() -> List[int]:
    """The live child processes of this process (fleet workers)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == me:
            children.append(int(entry))
    return children
