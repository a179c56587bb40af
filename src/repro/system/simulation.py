"""The discrete-time client/server simulation.

One timestamp (5 seconds in the paper) advances the world in three
phases, ordered so the paper's correctness argument holds:

1. **movement** — every subscriber advances along its trajectory; the
   *client-side* containment test fires a location-update round whenever
   the subscriber's cell leaves its safe region (or the region is empty);
2. **event arrivals** — the deterministic-rate stream publishes new
   events; the server handles impact-region hits with event-arrival
   rounds (:meth:`SimulationTransport.locate` stands in for the
   ping/reply message);
3. **event expiry** — due events leave the index silently (Lemma 4).

Because phase 1 restores the invariant "every subscriber is inside its
safe region (or reports every tick)", Lemma 1 guarantees during phase 2
that any event inside a notification circle is caught by the impact
index.  ``verify_no_missed_notifications`` checks the end-to-end delivery
guarantee by brute force and is used by the integration tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core import SafeRegion
from ..expressions import Event, Subscription
from ..geometry import Point
from ..trajectories import Trajectory
from .client import MobileClient
from .config import Transport
from .metrics import CommunicationStats
from .observability import MetricsRegistry
from .server import ElapsServer


class SimulationTransport(Transport):
    """The in-process wire of Figure 6: pings and pushes go straight to
    the :class:`MobileClient` state machines."""

    def __init__(self, simulation: "Simulation") -> None:
        self._simulation = simulation

    def locate(self, sub_id: int) -> Tuple[Point, Point]:
        """The server's location ping, answered by the client."""
        return self._simulation.clients[sub_id].answer_ping()

    def ship_region(self, sub_id: int, region: SafeRegion) -> None:
        """The client side of the safe-region push (Figure 6)."""
        self._simulation.clients[sub_id].receive_region(region)

    def ship_delta(self, sub_id: int, removed, region: SafeRegion) -> None:
        """The client side of a repair: carve the removed cells out of the
        held region, or install the full one when none is held."""
        client = self._simulation.clients[sub_id]
        if not client.apply_region_delta(removed):
            client.receive_region(region)


@dataclass
class SimulationResult:
    """Aggregated outcome of one run."""

    stats: CommunicationStats
    subscriber_count: int
    timestamps: int
    notification_count: int
    #: the server's full observability surface (counters + per-stage
    #: latency histograms); None only for results built by hand
    registry: Optional[MetricsRegistry] = None

    def per_subscriber(self) -> Dict[str, float]:
        """The per-subscriber averages the paper's figures report."""
        return self.stats.per_subscriber(self.subscriber_count)


class Simulation:
    """Drives subscribers and an event stream against one server.

    ``server`` may be a single :class:`ElapsServer` or a
    :class:`~repro.system.sharding.ShardedElapsServer` — the simulation
    only touches the surface the two share (installing its transport,
    driving the public operations, and reading the merged metrics).
    """

    def __init__(
        self,
        server: ElapsServer,
        subscriptions: Sequence[Subscription],
        trajectories: Sequence[Trajectory],
        event_stream: Iterator[Event],
        event_rate: float,
        event_ttl: Optional[int] = None,
        rate_schedule: Optional[Callable[[int], float]] = None,
        oracle_rebuild: bool = False,
        oracle_signal: Optional[Callable[[int], float]] = None,
    ) -> None:
        if len(subscriptions) != len(trajectories):
            raise ValueError(
                f"{len(subscriptions)} subscriptions vs {len(trajectories)} trajectories"
            )
        if event_rate < 0:
            raise ValueError(f"negative event rate: {event_rate}")
        self.server = server
        self.subscriptions = list(subscriptions)
        self.trajectories = list(trajectories)
        self.event_stream = event_stream
        self.event_rate = event_rate
        self.event_ttl = event_ttl
        #: optional time-varying arrival rate (Figure 10a); overrides
        #: ``event_rate`` per timestamp when set
        self.rate_schedule = rate_schedule
        #: the "-opi" oracle of Figure 10: rebuild every safe region for
        #: free whenever the watched signal (the dynamic rate by default,
        #: or an explicit signal such as the speed schedule) steps
        self.oracle_rebuild = oracle_rebuild
        self.oracle_signal = oracle_signal if oracle_signal is not None else rate_schedule
        self._clock = 0
        self._arrival_accumulator = 0.0
        self._notification_count = 0
        #: the subscriber-side state machines, one per subscription
        self.clients: Dict[int, MobileClient] = {
            sub.sub_id: MobileClient(sub, traj.position_at(0), traj.velocity_at(0))
            for sub, traj in zip(self.subscriptions, self.trajectories)
        }
        server.transport = SimulationTransport(self)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, timestamps: int) -> SimulationResult:
        """Drive the world for ``timestamps`` steps and aggregate the metrics."""
        # t = 0: everyone subscribes from their starting position.
        for subscription, trajectory in zip(self.subscriptions, self.trajectories):
            notifications, region = self.server.subscribe(
                subscription,
                trajectory.position_at(0),
                trajectory.velocity_at(0),
                now=0,
            )
            self._deliver(notifications)
            self.clients[subscription.sub_id].receive_region(region)

        previous_signal = self.oracle_signal(0) if self.oracle_signal else None
        for t in range(1, timestamps + 1):
            self._clock = t
            if self.oracle_rebuild and self.oracle_signal is not None:
                current_signal = self.oracle_signal(t)
                if current_signal != previous_signal:
                    # Figure 10's oracle: the safe regions are refreshed with
                    # the new parameters, and this refresh is free (the paper
                    # does not count it as communication I/O).
                    self.server.rebuild_all(t)
                previous_signal = current_signal
            self._move_phase(t)
            self._arrival_phase(t)
            self.server.expire_due_events(t)

        return SimulationResult(
            stats=self.server.merged_metrics(),
            subscriber_count=len(self.subscriptions),
            timestamps=timestamps,
            notification_count=self._notification_count,
            registry=self.server.merged_registry(),
        )

    def _deliver(self, notifications) -> None:
        for notification in notifications:
            self.clients[notification.sub_id].receive_notification(
                notification.event, notification.seq
            )
        self._notification_count += len(notifications)

    def _move_phase(self, t: int) -> None:
        for subscription, trajectory in zip(self.subscriptions, self.trajectories):
            client = self.clients[subscription.sub_id]
            due = client.move_to(trajectory.position_at(t), trajectory.velocity_at(t))
            if not due:
                continue  # the client stays silent inside its safe region
            location, velocity = client.report()
            notifications, new_region = self.server.report_location(
                subscription.sub_id, location, velocity, now=t
            )
            self._deliver(notifications)
            client.receive_region(new_region)

    def _arrival_phase(self, t: int) -> None:
        # Deterministic-rate arrivals: exactly the configured rate per
        # timestamp on average, via a fractional accumulator.
        rate = self.rate_schedule(t) if self.rate_schedule is not None else self.event_rate
        self._arrival_accumulator += rate
        arrivals = int(self._arrival_accumulator)
        self._arrival_accumulator -= arrivals
        for _ in range(arrivals):
            template = next(self.event_stream)
            event = dataclasses.replace(
                template,
                attributes=dict(template.attributes),
                arrived_at=t,
                expires_at=None if self.event_ttl is None else t + self.event_ttl,
            )
            self._deliver(self.server.publish(event, t))

    # ------------------------------------------------------------------
    # End-to-end guarantee check (used by the integration tests)
    # ------------------------------------------------------------------
    def verify_no_missed_notifications(self) -> List[Tuple[int, int]]:
        """Brute-force audit: (sub_id, event_id) pairs that *should* have
        been delivered by now but were not.  Empty means the paper's
        real-time dissemination guarantee held."""
        violations: List[Tuple[int, int]] = []
        for subscription, trajectory in zip(self.subscriptions, self.trajectories):
            delivered = self.server.delivered_ids(subscription.sub_id)
            position = trajectory.position_at(self._clock)
            for event in self.server.corpus_matches(subscription.expression):
                if event.event_id in delivered:
                    continue
                if position.distance_to(event.location) <= subscription.radius:
                    violations.append((subscription.sub_id, event.event_id))
        return violations
