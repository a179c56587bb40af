"""Seeded inputs: the program under test only ever sees what is made here.

The *city* is fixed (``WORLD_SEED``): the event hotspot map, the keyword
vocabulary, the road network, and the residents — who subscribes to what,
where they stand, which routes the commuters take.  ``--seed`` draws the
*news*: the bootstrap corpus and every event that arrives.  The callers
pass ``WORLD_SEED`` for the resident-side draws and ``--seed`` for events.

Drawing the city per seed as well moves throughput by a quarter between
seeds (hotspot placement decides how many events land inside notification
circles), and drawing the residents per seed moves the communication
rounds by a fifth (a handful of subscribers with no safe cell at all
report every timestamp, and how many there are is a small-number draw).
Either would bury every bound.  With the city and residents fixed, what
remains between seeds is the sampling noise of a few thousand events.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterator, List, Optional, Sequence, Tuple

from repro import (
    BooleanExpression,
    Event,
    Operator,
    Point,
    Predicate,
    Rect,
    RoadNetwork,
    Subscription,
    SyntheticTrajectoryGenerator,
    Trajectory,
    TwitterLikeGenerator,
)

WORLD_SEED = 2015
SPACE = Rect(0.0, 0.0, 50_000.0, 50_000.0)


def world() -> TwitterLikeGenerator:
    """The fixed city every workload draws its traffic from."""
    return TwitterLikeGenerator(SPACE, seed=WORLD_SEED)


def event_templates(
    generator: TwitterLikeGenerator, seed: int, stream: str, start_id: int
) -> Iterator[Event]:
    """An endless seeded stream of unstamped events with consecutive ids."""
    return generator.event_stream(start_id=start_id, seed_offset=f"{seed}-{stream}")


def stamp(template: Event, arrived_at: int, ttl: Optional[int]) -> Event:
    """The template as an event arriving at ``arrived_at`` living ``ttl``."""
    return dataclasses.replace(
        template,
        arrived_at=arrived_at,
        expires_at=None if ttl is None else arrived_at + ttl,
    )


def staggered_corpus(
    generator: TwitterLikeGenerator, seed: int, count: int, ttl: Optional[int]
) -> List[Event]:
    """The bootstrap corpus, expiring evenly over the first ``ttl`` ticks
    (never, with ``ttl=None``).

    A corpus that expired all at once would make the first ``ttl`` ticks
    unlike the rest of the run; staggering starts the run in the steady
    state (``count`` live events as long as arrivals replace expiries).
    """
    templates = itertools.islice(
        event_templates(generator, seed, "corpus", start_id=0), count
    )
    return [
        dataclasses.replace(
            template, arrived_at=0, expires_at=None if ttl is None else 1 + index % ttl
        )
        for index, template in enumerate(templates)
    ]


def subscriptions(
    generator: TwitterLikeGenerator,
    seed: int,
    count: int,
    radius: Tuple[float, float],
    start_id: int = 0,
    stream: str = "subs",
) -> List[Subscription]:
    """``count`` three-predicate subscriptions, radii uniform in ``radius``."""
    rng = random.Random(f"{seed}-{stream}-radius")
    drawn = generator.subscriptions(
        count, size=3, radius=radius[1], start_id=start_id,
        seed_offset=f"{seed}-{stream}",
    )
    return [
        dataclasses.replace(sub, radius=rng.uniform(radius[0], radius[1]))
        for sub in drawn
    ]


def stationary_positions(
    seed: int, corpus: Sequence[Event], count: int, stream: str = "places"
) -> List[Point]:
    """Half the subscribers stand at event hotspots, half anywhere.

    A hotspot position is a corpus event's location jittered by 150 m, so
    it follows the city's event density without reaching into the
    generator's private sampler.
    """
    rng = random.Random(f"{seed}-{stream}")
    positions = []
    for index in range(count):
        if index % 2 == 0:
            near = corpus[rng.randrange(len(corpus))].location
            x = min(max(near.x + rng.gauss(0.0, 150.0), SPACE.x_min), SPACE.x_max - 1.0)
            y = min(max(near.y + rng.gauss(0.0, 150.0), SPACE.y_min), SPACE.y_max - 1.0)
        else:
            x = rng.uniform(SPACE.x_min, SPACE.x_max - 1.0)
            y = rng.uniform(SPACE.y_min, SPACE.y_max - 1.0)
        positions.append(Point(x, y))
    return positions


def commuter_routes(seed: int, count: int, ticks: int, speed: float) -> List[Trajectory]:
    """Constant-speed walkers on the city's roads, one position per tick."""
    network = RoadNetwork(SPACE, grid_size=12, seed=WORLD_SEED)
    return SyntheticTrajectoryGenerator(network, speed=speed, seed=seed).trajectories(
        count, ticks
    )


def broadcast_subscription(sub_id: int, radius: float) -> Subscription:
    """A subscription that be-matches every event ``fanout_tcp`` publishes.

    No keyword is present in every generated event, so the publisher tags
    each one with ``alert = 1`` and the audience subscribes to that tag.
    """
    return Subscription(
        sub_id, BooleanExpression([Predicate(ALERT, Operator.GE, 1)]), radius
    )


#: the attribute ``fanout_tcp`` adds to every event (see above)
ALERT = "alert"
