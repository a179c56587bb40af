"""The serving configuration: how every workload builds the server.

Always the fast paths — batched publish, repair, vectorized construction,
byte accounting, iGM over a BEQ-Tree with ``emax=512`` and a
frequency-hinted subscription index.  Only public names are imported, and
a fast-path flag is set only while ``ServerConfig`` still has it: the
roadmap plans to make those paths the only ones and delete the flags, and
no later change may edit this directory.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro import BEQTree, ElapsServer, Grid, SubscriptionIndex, core
from repro.system import (
    JournalSpec,
    ProcessExecutor,
    ServerConfig,
    ShardedElapsServer,
)

from .inputs import SPACE

#: BEQ-Tree leaf capacity of the serving configuration
EMAX = 512

_FAST_PATH_FLAGS = {
    "repair": True,
    "vectorized_construction": True,
    "measure_bytes": True,
}


def server_config(initial_rate: float, journal: Optional[JournalSpec] = None) -> ServerConfig:
    """The serving ``ServerConfig``, tolerant of fast-path flags removed later."""
    known = {field.name for field in dataclasses.fields(ServerConfig)}
    wanted = dict(_FAST_PATH_FLAGS, initial_rate=initial_rate, journal=journal)
    return ServerConfig(**{k: v for k, v in wanted.items() if k in known})


def strategy(max_cells: int):
    """Vectorized iGM (plain iGM once the twin is gone), built directly so
    a tracing proxy can wrap it without hiding it from the upgrade."""
    cls = getattr(core, "VectorizedIGM", None) or core.IGM
    return cls(max_cells=max_cells)


def single_server(
    generator, grid_n: int, max_cells: int, initial_rate: float, tracer=None
) -> ElapsServer:
    """One ``ElapsServer`` in the serving configuration.

    ``tracer`` (a :class:`bench.trace.Recorder`) wraps every seam the
    constructor offers, and the two public attributes without one.
    """
    built_strategy = strategy(max_cells)
    event_index = BEQTree(SPACE, emax=EMAX)
    subscription_index = SubscriptionIndex(generator.frequency_hint())
    if tracer is not None:
        built_strategy = tracer.wrap_strategy(built_strategy)
        event_index = tracer.wrap_event_index(event_index)
        subscription_index = tracer.wrap_subscription_index(subscription_index)
    server = ElapsServer(
        Grid(grid_n, SPACE),
        built_strategy,
        server_config(initial_rate),
        event_index=event_index,
        subscription_index=subscription_index,
    )
    if tracer is not None:
        server.impact_index = tracer.wrap_impact_index(server.impact_index)
    return server


def process_fleet(
    generator,
    grid_n: int,
    max_cells: int,
    initial_rate: float,
    shards: int,
    journal: JournalSpec,
    tracer=None,
) -> ShardedElapsServer:
    """A journaled K-shard fleet, one worker process per shard."""
    executor = ProcessExecutor()
    if tracer is not None:
        executor = tracer.wrap_executor(executor)
    return ShardedElapsServer(
        Grid(grid_n, SPACE),
        lambda: strategy(max_cells),
        server_config(initial_rate, journal),
        shards=shards,
        executor=executor,
        event_index_factory=lambda: BEQTree(SPACE, emax=EMAX),
        subscription_index_factory=lambda: SubscriptionIndex(
            generator.frequency_hint()
        ),
    )
