"""One-call experiment runner used by the examples and every benchmark.

An :class:`ExperimentConfig` captures the paper's evaluation knobs
(Table 2) plus the scaled-down sizes of this reproduction; ``run_experiment``
builds the whole stack — dataset, trajectories, indexes, server, simulation
— deterministically from the seed, runs it, and returns the per-subscriber
figures the paper plots.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type

from ..core import GridMethod, IDGM, IGM, SafeRegionStrategy, VoronoiMethod
from ..datasets import FoursquareLikeGenerator, TwitterLikeGenerator
from ..geometry import Grid, Rect
from ..index import BEQTree, SubscriptionIndex
from ..trajectories import (
    RoadNetwork,
    SyntheticTrajectoryGenerator,
    TaxiTrajectoryGenerator,
)
from .config import RebalancePolicy, ServerConfig
from .executors import ProcessExecutor, SerialExecutor
from .server import ElapsServer
from .sharding import ShardedElapsServer
from .simulation import Simulation, SimulationResult

#: strategy registry: name -> class
STRATEGIES: Dict[str, Type[SafeRegionStrategy]] = {
    "VM": VoronoiMethod,
    "GM": GridMethod,
    "iGM": IGM,
    "idGM": IDGM,
}

#: side of the square space in metres, mirroring the Singapore extent
SPACE_SIZE = 50_000.0


def matching_mode_for(strategy: str) -> str:
    """VM/GM need the global matching list, a full-corpus match per
    construction (the paper's ``-BE`` path); iGM/idGM pull events on
    demand."""
    return "full" if strategy in ("VM", "GM") else "ondemand"


@dataclass(frozen=True)
class ExperimentConfig:
    """The knobs of one communication-overhead experiment.

    Defaults mirror Table 2's bold values, scaled down for a pure-Python
    substrate (see DESIGN.md): the paper's 30M-event corpus becomes
    ``initial_events``, its 10,000 trajectories become ``subscribers``,
    its 1000 timestamps become ``timestamps``.
    """

    strategy: str = "iGM"
    dataset: str = "twitter"  # or "foursquare"
    movement: str = "synthetic"  # or "taxi"
    event_rate: float = 2.0  # f, events per timestamp
    speed: float = 60.0  # vs, metres per timestamp
    radius: float = 3000.0  # r, notification radius in metres
    initial_events: int = 20_000  # E, corpus size
    subscription_size: int = 3  # delta
    subscribers: int = 40
    timestamps: int = 250
    grid_n: int = 120  # N
    emax: int = 512  # BEQ-Tree leaf capacity
    event_ttl: Optional[int] = None
    matching_mode: Optional[str] = None  # None: matching_mode_for(strategy)
    max_cells: Optional[int] = 2500  # safe-region cap (deviation, DESIGN.md)
    seed: int = 7
    alpha: Optional[float] = None  # idGM direction weight override
    beta: Optional[float] = None  # termination threshold override (Fig 9)
    rate_schedule: Optional[Callable[[int], float]] = None  # dynamic f (Fig 10a)
    speed_schedule: Optional[Callable[[int], float]] = None  # dynamic vs (Fig 10b)
    oracle_rebuild: bool = False  # the "-opi" free-refresh oracle (Fig 10)
    use_impact_region: bool = True  # ablation: False pings on every match
    incremental_impact: bool = True  # ablation: Example 2 strips on/off
    repair: bool = False  # incremental safe-region repair (DESIGN.md §10)
    slow_span_seconds: Optional[float] = None  # log spans at/above this
    shards: int = 1  # spatial shards; > 1 builds a ShardedElapsServer
    shard_executor: str = "serial"  # or "process"
    rebalance: bool = False  # load-adaptive boundary moves (DESIGN.md §15)

    def with_(self, **changes) -> "ExperimentConfig":
        """A copy of this configuration with fields replaced."""
        return dataclasses.replace(self, **changes)

    @property
    def resolved_matching_mode(self) -> str:
        """The configured matching mode, or the strategy's own."""
        if self.matching_mode is not None:
            return self.matching_mode
        return matching_mode_for(self.strategy)


def build_strategy(config: ExperimentConfig) -> SafeRegionStrategy:
    """Instantiate the configured strategy, honouring alpha/beta overrides."""
    cls = STRATEGIES.get(config.strategy)
    if cls is None:
        raise ValueError(
            f"unknown strategy {config.strategy!r}; pick one of {sorted(STRATEGIES)}"
        )
    knobs = {
        "alpha": config.alpha,
        "beta": config.beta,
        "max_cells": config.max_cells,
        "incremental_impact": config.incremental_impact,
    }
    # each class takes the knobs its constructor names; None is "its default"
    accepted = inspect.signature(cls).parameters
    return cls(
        **{k: v for k, v in knobs.items() if k in accepted and v is not None}
    )


def _build_generator(config: ExperimentConfig, space: Rect):
    if config.dataset == "twitter":
        return TwitterLikeGenerator(space, seed=config.seed)
    if config.dataset == "foursquare":
        return FoursquareLikeGenerator(space, seed=config.seed)
    raise ValueError(f"unknown dataset {config.dataset!r}")


def build_server(config: ExperimentConfig, journal=None):
    """Assemble a bare (un-bootstrapped) server for this configuration.

    Returns a single :class:`ElapsServer` or, when ``config.shards > 1``,
    a :class:`ShardedElapsServer` fleet — the same construction
    :func:`build_simulation` uses, exposed so trace replay can re-run a
    recorded workload under a different configuration.  ``journal``
    (a :class:`~repro.system.journal.JournalSpec`) turns on durability.
    """
    space = Rect(0.0, 0.0, SPACE_SIZE, SPACE_SIZE)
    grid = Grid(config.grid_n, space)
    generator = _build_generator(config, space)
    server_config = ServerConfig(
        matching_mode=config.resolved_matching_mode,
        initial_rate=config.event_rate,
        use_impact_region=config.use_impact_region,
        repair=config.repair,
        journal=journal,
    )
    if config.shards > 1:
        if config.shard_executor == "serial":
            executor = SerialExecutor()
        elif config.shard_executor == "process":
            executor = ProcessExecutor()
        else:
            raise ValueError(
                f"unknown shard executor {config.shard_executor!r}; "
                "pick 'serial' or 'process'"
            )
        server = ShardedElapsServer(
            grid,
            lambda: build_strategy(config),
            server_config,
            shards=config.shards,
            executor=executor,
            event_index_factory=lambda: BEQTree(space, emax=config.emax),
            subscription_index_factory=lambda: SubscriptionIndex(
                generator.frequency_hint()
            ),
            rebalance=RebalancePolicy() if config.rebalance else None,
        )
    else:
        server = ElapsServer(
            grid,
            build_strategy(config),
            server_config,
            event_index=BEQTree(space, emax=config.emax),
            subscription_index=SubscriptionIndex(generator.frequency_hint()),
        )
    server.configure_tracing(config.slow_span_seconds)
    return server


def build_simulation(config: ExperimentConfig, wrap_server=None) -> Simulation:
    """Assemble the full Elaps stack for one experiment.

    ``wrap_server`` (server -> server) is applied before bootstrap, so a
    wrapper such as :class:`repro.testing.replay.TraceRecorder` observes
    every operation including the initial corpus load.
    """
    space = Rect(0.0, 0.0, SPACE_SIZE, SPACE_SIZE)
    generator = _build_generator(config, space)
    stream = generator.event_stream(start_id=config.initial_events, seed_offset=1)

    subscriptions = generator.subscriptions(
        config.subscribers, size=config.subscription_size, radius=config.radius
    )

    network = RoadNetwork(space, grid_size=12, seed=config.seed)
    if config.movement == "synthetic":
        trajectory_gen = SyntheticTrajectoryGenerator(
            network,
            speed=config.speed,
            seed=config.seed,
            speed_schedule=config.speed_schedule,
        )
    elif config.movement == "taxi":
        trajectory_gen = TaxiTrajectoryGenerator(
            network, base_speed=config.speed, seed=config.seed
        )
    else:
        raise ValueError(f"unknown movement {config.movement!r}")
    trajectories = trajectory_gen.trajectories(config.subscribers, config.timestamps + 1)

    server = build_server(config)
    if wrap_server is not None:
        server = wrap_server(server)
    server.bootstrap(generator.events(config.initial_events))
    return Simulation(
        server,
        subscriptions,
        trajectories,
        stream,
        event_rate=config.event_rate,
        event_ttl=config.event_ttl,
        rate_schedule=config.rate_schedule,
        oracle_rebuild=config.oracle_rebuild,
        oracle_signal=config.rate_schedule or config.speed_schedule,
    )


def run_experiment(config: ExperimentConfig) -> SimulationResult:
    """Build and run one experiment end to end."""
    simulation = build_simulation(config)
    return simulation.run(config.timestamps)
