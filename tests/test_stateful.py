"""Stateful property tests (hypothesis rule-based state machines).

Two long-lived mutable structures carry the system's correctness burden
under churn: the BEQ-Tree (events arrive and expire constantly) and the
impact-region index (regions are replaced on every reconstruction).
These machines hammer them with random operation sequences and check
them against a trivial model after every step.
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core import IGM
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect, codes_of_cells, interleave
from repro.index import BEQTree, ImpactRegionIndex
from repro.system import CallbackTransport, ServerConfig, ElapsServer

SPACE = Rect(0, 0, 1000, 1000)

QUERY = Subscription(
    1,
    BooleanExpression([Predicate("k", Operator.LE, 5)]),
    radius=300.0,
)


class BEQTreeMachine(RuleBasedStateMachine):
    """Insert/delete churn against a dict model, with match audits."""

    def __init__(self) -> None:
        super().__init__()
        self.tree = BEQTree(SPACE, emax=4)
        self.model: dict = {}
        self.next_id = 0

    @rule(
        x=st.floats(min_value=0, max_value=1000),
        y=st.floats(min_value=0, max_value=1000),
        value=st.integers(min_value=0, max_value=9),
    )
    def insert(self, x, y, value):
        event = Event(self.next_id, {"k": value}, Point(x, y))
        self.next_id += 1
        self.tree.insert(event)
        self.model[event.event_id] = event

    @rule(data=st.data())
    def delete(self, data):
        if not self.model:
            return
        event_id = data.draw(st.sampled_from(sorted(self.model)))
        event = self.model.pop(event_id)
        self.tree.delete(event)

    @invariant()
    def size_matches_model(self):
        assert len(self.tree) == len(self.model)

    @invariant()
    def match_agrees_with_model(self):
        at = Point(500, 500)
        expected = sorted(
            e.event_id
            for e in self.model.values()
            if QUERY.matches(e, at)
        )
        got = sorted(e.event_id for e in self.tree.match(QUERY, at))
        assert got == expected

    @invariant()
    def leaf_capacity_respected(self):
        for leaf in self.tree.leaves():
            assert len(leaf) <= self.tree.emax or self.tree.depth() >= self.tree.max_depth


class ImpactIndexMachine(RuleBasedStateMachine):
    """Region replacement churn against a dict-of-sets model."""

    def __init__(self) -> None:
        super().__init__()
        self.index = ImpactRegionIndex()
        self.model: dict = {}

    @rule(
        sub_id=st.integers(min_value=0, max_value=8),
        cells=st.sets(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8
        ),
    )
    def replace(self, sub_id, cells):
        self.index.replace(sub_id, codes_of_cells(cells))
        self.model[sub_id] = frozenset(cells)

    @rule(sub_id=st.integers(min_value=0, max_value=8))
    def remove(self, sub_id):
        self.index.remove(sub_id)
        self.model.pop(sub_id, None)

    @invariant()
    def lookups_agree_with_model(self):
        for i in range(6):
            for j in range(6):
                cell, code = (i, j), interleave(i, j)
                expected = {s for s, cells in self.model.items() if cell in cells}
                assert set(self.index.subscribers_covering(code)) == expected
                for sub_id in range(9):
                    assert self.index.covers(sub_id, code) == (
                        sub_id in self.model and cell in self.model[sub_id]
                    )


class _ClientModel:
    """The durable client side: where it is and what it actually holds."""

    def __init__(self, subscription: Subscription, location: Point) -> None:
        self.subscription = subscription
        self.location = location
        self.received: set = set()

    def deliver(self, notifications, dropper) -> None:
        """Hand notifications to the client; ``dropper`` plays the network.

        The exactly-once half of the delivery contract is checked right
        here: the server must never ship an event the client already
        holds, whatever interleaving of losses and reconnects happened.
        """
        for notification in notifications:
            event_id = notification.event.event_id
            assert event_id not in self.received, (
                f"event {event_id} shipped twice to sub "
                f"{self.subscription.sub_id}"
            )
            if not dropper():
                self.received.add(event_id)


class ReconnectResyncMachine(RuleBasedStateMachine):
    """Publish/move/reconnect churn with a lossy network in between.

    Drops are decided by hypothesis, so shrinking finds the minimal
    fault interleaving that breaks either delivery guarantee: at-most-
    once is asserted on every delivery, at-least-once (for events
    matching at the final location) after a lossless resync in teardown.
    """

    def __init__(self) -> None:
        super().__init__()
        self.server = ElapsServer(
            Grid(10, SPACE),
            IGM(max_cells=100),
            ServerConfig(initial_rate=1.0),
            event_index=BEQTree(SPACE, emax=8))
        self.clients = {}
        for sub_id, (threshold, radius) in enumerate([(4, 300.0), (7, 400.0)]):
            subscription = Subscription(
                sub_id,
                BooleanExpression([Predicate("k", Operator.LE, threshold)]),
                radius=radius,
            )
            client = _ClientModel(subscription, Point(500.0, 500.0))
            self.clients[sub_id] = client
        self.server.transport = CallbackTransport(locate=lambda sub_id: (
            self.clients[sub_id].location,
            Point(0.0, 0.0),
        ))
        for client in self.clients.values():
            notifications, _ = self.server.subscribe(
                client.subscription, client.location, Point(0.0, 0.0), now=0
            )
            client.deliver(notifications, lambda: False)
        self.now = 0
        self.next_event_id = 0

    def _dropper(self, data):
        return lambda: data.draw(st.booleans(), label="drop")

    @rule(
        x=st.floats(min_value=0, max_value=1000),
        y=st.floats(min_value=0, max_value=1000),
        k=st.integers(min_value=0, max_value=9),
        data=st.data(),
    )
    def publish(self, x, y, k, data):
        self.now += 1
        event = Event(self.next_event_id, {"k": k}, Point(x, y))
        self.next_event_id += 1
        notifications = self.server.publish(event, self.now)
        for sub_id, client in self.clients.items():
            client.deliver(
                [n for n in notifications if n.sub_id == sub_id],
                self._dropper(data),
            )

    @rule(
        sub_id=st.integers(min_value=0, max_value=1),
        x=st.floats(min_value=0, max_value=1000),
        y=st.floats(min_value=0, max_value=1000),
        data=st.data(),
    )
    def move(self, sub_id, x, y, data):
        self.now += 1
        client = self.clients[sub_id]
        client.location = Point(x, y)
        notifications, _ = self.server.report_location(
            sub_id, client.location, Point(0.0, 0.0), self.now
        )
        client.deliver(notifications, self._dropper(data))

    @rule(sub_id=st.integers(min_value=0, max_value=1), data=st.data())
    def reconnect(self, sub_id, data):
        """A dead connection: resubscribe, then resync the received set."""
        self.now += 1
        client = self.clients[sub_id]
        notifications, _ = self.server.subscribe(
            client.subscription, client.location, Point(0.0, 0.0), self.now
        )
        client.deliver(notifications, self._dropper(data))
        notifications, _ = self.server.resync(
            sub_id,
            client.location,
            Point(0.0, 0.0),
            tuple(sorted(client.received)),
            self.now,
        )
        # the resync redeliveries themselves may be lost again
        client.deliver(notifications, self._dropper(data))

    def teardown(self):
        self.now += 1
        for sub_id, client in self.clients.items():
            notifications, _ = self.server.resync(
                sub_id,
                client.location,
                Point(0.0, 0.0),
                tuple(sorted(client.received)),
                self.now,
            )
            client.deliver(notifications, lambda: False)
            expected = {
                event.event_id
                for event in self.server._events_by_id.values()
                if client.subscription.matches(event, at=client.location)
            }
            missing = expected - client.received
            assert not missing, (
                f"sub {sub_id} never saw matching events {sorted(missing)}"
            )


TestBEQTreeMachine = BEQTreeMachine.TestCase
TestBEQTreeMachine.settings = settings(max_examples=20, stateful_step_count=30, deadline=None)

TestImpactIndexMachine = ImpactIndexMachine.TestCase
TestImpactIndexMachine.settings = settings(max_examples=15, stateful_step_count=20, deadline=None)

TestReconnectResyncMachine = ReconnectResyncMachine.TestCase
TestReconnectResyncMachine.settings = settings(
    max_examples=10, stateful_step_count=25, deadline=None
)
