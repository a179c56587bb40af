"""Flash sales: DNF subscriptions, expiring events and wire accounting.

A commuter wants either *deep* electronics discounts or *cheap* fashion —
a disjunction the paper's conjunctive subscriptions cannot express, and
the extension this implementation adds:

    (category = electronics AND discount >= 50)
 OR (category = fashion AND price < 30)

Flash-sale events are only valid for a few minutes (they expire and leave
the index silently — Lemma 4), and every message is measured with the
binary wire protocol, showing what the WAH-compressed safe regions cost
on the air.

Run:  python examples/flash_sales.py
"""

import random

from repro import (
    BEQTree,
    BooleanExpression,
    CallbackTransport,
    DnfExpression,
    ElapsServer,
    Event,
    Grid,
    IGM,
    Operator,
    Point,
    Predicate,
    Rect,
    RoadNetwork,
    ServerConfig,
    Subscription,
    SyntheticTrajectoryGenerator,
)

SPACE = Rect(0, 0, 20_000, 20_000)
TIMESTAMPS = 120
SALE_TTL = 24  # a flash sale lasts 2 minutes (24 x 5 s)

INTEREST = DnfExpression([
    BooleanExpression([
        Predicate("category", Operator.EQ, "electronics"),
        Predicate("discount", Operator.GE, 50),
    ]),
    BooleanExpression([
        Predicate("category", Operator.EQ, "fashion"),
        Predicate("price", Operator.LT, 30),
    ]),
])

CATEGORIES = ("electronics", "fashion", "food", "books")


def make_sale(rng: random.Random, event_id: int, now: int) -> Event:
    category = rng.choice(CATEGORIES)
    attributes = {
        "category": category,
        "discount": rng.choice((10, 20, 30, 50, 70)),
        "price": rng.randint(5, 200),
    }
    location = Point(rng.uniform(0, 20_000), rng.uniform(0, 20_000))
    return Event(event_id, attributes, location,
                 arrived_at=now, expires_at=now + SALE_TTL)


def main() -> None:
    rng = random.Random(42)
    network = RoadNetwork(SPACE, grid_size=6, seed=1)
    trajectory = SyntheticTrajectoryGenerator(network, speed=55.0, seed=2).trajectory(
        0, TIMESTAMPS + 1
    )
    subscription = Subscription(1, INTEREST, radius=2_500.0)

    clock = 0
    client_region = {}
    server = ElapsServer(
        Grid(100, SPACE),
        IGM(max_cells=1_200),
        ServerConfig(initial_rate=3.0),
        event_index=BEQTree(SPACE, emax=128),
        transport=CallbackTransport(
            locate=lambda sub_id: (
                trajectory.position_at(clock), trajectory.velocity_at(clock)
            ),
            ship_region=client_region.__setitem__,
        ),
    )
    _, region = server.subscribe(
        subscription, trajectory.position_at(0), trajectory.velocity_at(0), now=0
    )
    client_region[subscription.sub_id] = region

    next_id = 0
    for clock in range(1, TIMESTAMPS + 1):
        position = trajectory.position_at(clock)
        region = client_region[subscription.sub_id]
        if region.is_empty() or not region.contains_point(position):
            server.report_location(
                subscription.sub_id, position, trajectory.velocity_at(clock), clock
            )
        for _ in range(3):  # three flash sales per timestamp, city-wide
            sale = make_sale(rng, next_id, clock)
            next_id += 1
            for notification in server.publish(sale, clock):
                attrs = dict(notification.event.attributes)
                print(f"t={clock:3d}  ALERT {attrs['category']}: "
                      f"discount {attrs['discount']}%, ${attrs['price']} "
                      f"(valid for {SALE_TTL * 5 // 60} min)")
        expired = server.expire_due_events(clock)

    stats = server.metrics
    live = len(server.event_index)
    print(f"\n{next_id} flash sales published, {live} still valid at the end "
          f"(TTL {SALE_TTL} timestamps)")
    print(f"notifications: {stats.notifications}; communication rounds: "
          f"{stats.location_update_rounds} location + {stats.event_arrival_rounds} event")
    print(f"wire traffic: {stats.wire_bytes_up} B up, {stats.wire_bytes_down} B down "
          f"({stats.constructions} safe regions shipped, WAH bitmaps "
          f"{100 * stats.safe_region_bytes / max(stats.raw_region_bytes, 1):.0f}% "
          f"of their raw size)")


if __name__ == "__main__":
    main()
