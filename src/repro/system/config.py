"""Server configuration and the transport seam.

* :class:`ServerConfig` — one frozen dataclass holding every tuning knob
  of a server.  ``ElapsServer(grid, strategy, config=ServerConfig(...))``
  is the only construction form; a :class:`ShardedElapsServer
  <repro.system.sharding.ShardedElapsServer>` builds every worker from
  one shared config.  What a constructor argument already decides — the
  construction strategy, the shard executor, the rebalance policy — is
  *not* repeated here.
* :class:`NetworkConfig` / :class:`ClientConfig` — the same for the TCP
  front-end and the two network clients.
* :class:`Transport` — the single client-facing seam.  A transport knows
  how to ship a full safe region (``ship_region``), ship a repair delta
  (``ship_delta``, defaulting to a full push for transports that cannot
  frame deltas), and answer the server's location ping (``locate``).  It
  is passed at construction (or assigned to ``server.transport``);
  :class:`CallbackTransport` adapts plain callables.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from ..geometry import Point

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from ..core import SafeRegion, SystemStats
    from .journal import JournalSpec

__all__ = [
    "CallbackTransport",
    "ClientConfig",
    "MAX_FRAME_LENGTH",
    "NetworkConfig",
    "RebalancePolicy",
    "ReconnectPolicy",
    "ServerConfig",
    "Transport",
]

#: upper bound on a frame's declared payload length; anything larger is
#: treated as a framing error (a corrupted length field would otherwise
#: stall the reader for gigabytes)
MAX_FRAME_LENGTH = 1 << 24

#: the matching modes the server understands (DESIGN.md §6)
MATCHING_MODES = ("ondemand", "full")


@dataclass(frozen=True)
class RebalancePolicy:
    """When and how aggressively a sharded fleet moves its band
    boundaries (DESIGN.md §15).

    The coordinator tracks per-column event load; every ``check_every``
    published events (once ``min_events`` have been seen) it compares the
    hottest band's share against the mean, and when the ratio exceeds
    ``max_imbalance`` it re-cuts the column boundaries so each band
    carries an equal share of the observed load — splitting hot bands and
    merging cold ones in one move.  ``decay`` ages the load counters
    after each rebalance so the policy follows a moving hotspot instead
    of averaging over all history.
    """

    #: published events between imbalance checks
    check_every: int = 256
    #: trigger when (hottest band load) / (mean band load) exceeds this
    max_imbalance: float = 2.0
    #: observed events required before the first check
    min_events: int = 512
    #: multiplier applied to every column-load counter after a rebalance
    decay: float = 0.5

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError(f"check_every must be positive: {self.check_every}")
        if self.max_imbalance < 1.0:
            raise ValueError(
                f"max_imbalance must be at least 1.0: {self.max_imbalance}"
            )
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1]: {self.decay}")


@dataclass(frozen=True)
class ServerConfig:
    """Every tuning knob of one Elaps server, in one immutable value.

    Being frozen (and hashable but for the optional callable) it can be
    shared verbatim across the workers of a sharded deployment — the
    coordinator hands the *same* config to every shard, so a fleet can
    never be built half-repairing.
    """

    #: how a construction finds the subscriber's matching events, one of
    #: the paper's two: ``ondemand`` (LazyBEQField, the ``-BEQ`` path) or
    #: ``full`` (materialise every be-match, the ``-BE`` path)
    matching_mode: str = "ondemand"
    #: seed value for the rate estimator until the window fills; None
    #: starts the estimate from observed arrivals only
    initial_rate: Optional[float] = None
    #: replace the live cost-model inputs with a fixed schedule (tests
    #: and the Figure 10 oracle variants)
    stats_override: Optional[Callable[[int], "SystemStats"]] = None
    #: ablation switch: with False, every be-matching arrival pings the
    #: subscriber, as if the impact-region concept did not exist
    use_impact_region: bool = True
    #: incremental safe-region repair (DESIGN.md §10) instead of full
    #: reconstruction on type-II out-of-radius events
    repair: bool = False
    #: durability: journal every state-changing operation under this
    #: spec's directory and enable snapshot/recover (DESIGN.md §13);
    #: None keeps the server purely in-memory.  Sharded fleets derive a
    #: per-band spec via :meth:`JournalSpec.for_shard`.
    journal: Optional["JournalSpec"] = None

    def __post_init__(self) -> None:
        if self.matching_mode not in MATCHING_MODES:
            raise ValueError(
                f"unknown matching mode: {self.matching_mode!r}; "
                f"pick one of {MATCHING_MODES}"
            )

    def with_(self, **changes) -> "ServerConfig":
        """A copy of this configuration with fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class NetworkConfig:
    """Every knob of the TCP front-end, in one immutable value.

    Mirrors :class:`ServerConfig`: ``ElapsTCPServer(core,
    config=NetworkConfig(...))`` is the only construction form, and
    being frozen the same value can configure a whole fleet of
    listeners without drift.

    The data path behind these knobs (DESIGN.md §17): connection
    handlers feed a bounded **ingress** queue drained by one dispatcher
    (a full queue stops the reads — natural TCP backpressure), and every
    connection owns a bounded **send queue** drained by a dedicated
    writer task (a full queue sheds stale region frames, and a consumer
    that stays over cap is disconnected and healed by resync).
    """

    #: a connection silent for longer than this is presumed dead and
    #: reaped (clients heartbeat well inside it); None disables
    read_timeout: Optional[float] = 30.0
    #: a frame that cannot be flushed within this budget marks a stalled
    #: peer and drops the connection; None disables
    write_timeout: Optional[float] = 10.0
    #: with True, a dropped connection keeps its subscriber records so a
    #: reconnecting client can resubscribe/resync into them; the default
    #: preserves the original semantics (disconnect means unsubscribe)
    retain_subscribers: bool = False
    #: decoded frames buffered between the sockets and the core; when
    #: full, connection handlers stop reading (TCP backpressure)
    ingress_queue: int = 1024
    #: soft cap on frames queued per connection; crossing it sheds stale
    #: region pushes/deltas and ephemeral frames (notifications are never
    #: shed — a consumer that cannot drain them is disconnected and healed
    #: by resync) and starts the slow-consumer clock
    send_queue: int = 256
    #: hard cap on frames queued per connection — reaching it disconnects
    #: the consumer immediately; None defaults to ``2 * send_queue``
    send_queue_hard: Optional[int] = None
    #: seconds a send queue may sit over ``send_queue`` before the
    #: consumer is declared slow and disconnected
    slow_consumer_grace: float = 2.0
    #: admission control: connections beyond this are closed at accept
    #: time (counted in ``connections_refused``); None admits everyone
    max_connections: Optional[int] = None
    #: when set, each accepted connection's transport write buffer (and
    #: its socket ``SO_SNDBUF``) is capped at this many bytes, so a slow
    #: consumer backs the writer task up into the send queue instead of
    #: hiding megabytes in kernel buffers; None keeps platform defaults
    write_buffer_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.read_timeout is not None and self.read_timeout < 0:
            raise ValueError(f"read_timeout must be >= 0: {self.read_timeout}")
        if self.write_timeout is not None and self.write_timeout < 0:
            raise ValueError(f"write_timeout must be >= 0: {self.write_timeout}")
        if self.ingress_queue < 1:
            raise ValueError(f"ingress_queue must be positive: {self.ingress_queue}")
        if self.send_queue < 1:
            raise ValueError(f"send_queue must be positive: {self.send_queue}")
        if self.send_queue_hard is not None and self.send_queue_hard < self.send_queue:
            raise ValueError(
                f"send_queue_hard ({self.send_queue_hard}) must be at least "
                f"send_queue ({self.send_queue})"
            )
        if self.slow_consumer_grace < 0:
            raise ValueError(
                f"slow_consumer_grace must be >= 0: {self.slow_consumer_grace}"
            )
        if self.max_connections is not None and self.max_connections < 1:
            raise ValueError(
                f"max_connections must be positive: {self.max_connections}"
            )
        if self.write_buffer_limit is not None and self.write_buffer_limit < 1:
            raise ValueError(
                f"write_buffer_limit must be positive: {self.write_buffer_limit}"
            )

    @property
    def hard_cap(self) -> int:
        """The effective hard send-queue bound (frames)."""
        return (
            self.send_queue_hard
            if self.send_queue_hard is not None
            else 2 * self.send_queue
        )

    def with_(self, **changes) -> "NetworkConfig":
        """A copy of this configuration with fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ReconnectPolicy:
    """Exponential backoff with jitter for a client reconnect loop."""

    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: extra uniform fraction of the delay, decorrelating client herds
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ValueError(f"base_delay must be positive: {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay}) must be at least "
                f"base_delay ({self.base_delay})"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0: {self.jitter}")

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """The sleep before reconnect ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return raw * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class ClientConfig:
    """The shared configuration of both Elaps network clients.

    They are different things, not two takes on one:
    :class:`~repro.system.network.ElapsNetworkClient` is a *connection*
    — no subscription of its own, any number of subscribers and the
    publisher role multiplexed on one socket — and
    :class:`~repro.system.network.ResilientElapsClient` is a
    *subscriber* — one ``MobileClient``, supervised across reconnects.
    Both take this value, so one config describes a client fleet
    whichever of the two a role runs under.
    """

    #: seconds between keepalive frames (resilient client only)
    heartbeat_interval: float = 1.0
    #: a session with no frame inside this window is declared dead and
    #: redialled; None derives ``4 * heartbeat_interval``
    read_timeout: Optional[float] = None
    #: default wait for a single pushed frame (``receive`` /
    #: ``request_stats`` on either client)
    receive_timeout: float = 5.0
    #: the backoff schedule of the resilient client's reconnect loop
    reconnect: ReconnectPolicy = field(default_factory=ReconnectPolicy)

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive: {self.heartbeat_interval}"
            )
        if self.read_timeout is not None and self.read_timeout <= 0:
            raise ValueError(f"read_timeout must be positive: {self.read_timeout}")
        if self.receive_timeout <= 0:
            raise ValueError(
                f"receive_timeout must be positive: {self.receive_timeout}"
            )

    @property
    def effective_read_timeout(self) -> float:
        """The session read timeout with the heartbeat-derived default."""
        return (
            self.read_timeout
            if self.read_timeout is not None
            else self.heartbeat_interval * 4
        )

    def with_(self, **changes) -> "ClientConfig":
        """A copy of this configuration with fields replaced."""
        return dataclasses.replace(self, **changes)


class Transport:
    """The server's one seam to its clients.

    The server calls exactly three things on the outside world: it ships
    full safe regions, it ships repair deltas, and it asks where a
    subscriber is right now (the event-arrival ping).  A transport
    bundles the three, so the simulation, the TCP layer, and a sharding
    coordinator each implement one small class instead of patching three
    attributes onto a live server.

    The base class is a usable null transport: regions vanish, deltas
    degrade to full pushes, and ``locate`` answers ``None`` ("no fresher
    position than the last report"), which makes every method optional
    for subclasses.
    """

    def ship_region(self, sub_id: int, region: "SafeRegion") -> None:
        """Push one full safe region to the subscriber's client."""

    def ship_delta(
        self, sub_id: int, removed: "np.ndarray", region: "SafeRegion"
    ) -> None:
        """Push a repair: the cells carved out of the held region (their
        ascending Morton codes).

        ``region`` is the post-repair safe region, so a transport that
        cannot frame deltas inherits this default and ships the full
        region instead.
        """
        self.ship_region(sub_id, region)

    def locate(self, sub_id: int) -> Optional[Tuple[Point, Point]]:
        """Answer the server's ping with ``(location, velocity)``.

        ``None`` means the transport has nothing fresher than the
        subscriber's last report (the TCP layer's answer; the in-process
        simulation asks the client state machine instead).
        """
        return None


class CallbackTransport(Transport):
    """A :class:`Transport` over plain callables.

    The adapter that lets quick tests skip defining a class: any
    subset of the three hooks may be given, and an absent ``ship_delta``
    falls back to a full ``ship_region`` push.
    """

    def __init__(
        self,
        *,
        ship_region: Optional[Callable[[int, "SafeRegion"], None]] = None,
        ship_delta: Optional[
            Callable[[int, "np.ndarray", "SafeRegion"], None]
        ] = None,
        locate: Optional[Callable[[int], Tuple[Point, Point]]] = None,
    ) -> None:
        self._ship_region = ship_region
        self._ship_delta = ship_delta
        self._locate = locate

    def ship_region(self, sub_id: int, region: "SafeRegion") -> None:
        """Forward to the wrapped callable (or drop when absent)."""
        if self._ship_region is not None:
            self._ship_region(sub_id, region)

    def ship_delta(
        self, sub_id: int, removed: "np.ndarray", region: "SafeRegion"
    ) -> None:
        """Forward the delta, or fall back to a full region push."""
        if self._ship_delta is not None:
            self._ship_delta(sub_id, removed, region)
        else:
            self.ship_region(sub_id, region)

    def locate(self, sub_id: int) -> Optional[Tuple[Point, Point]]:
        """Ask the wrapped callable; ``None`` when no locator was given."""
        if self._locate is None:
            return None
        return self._locate(sub_id)
