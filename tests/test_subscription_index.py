"""SubscriptionIndex (OpIndex over subscriptions): event -> matching subs."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import TwitterLikeGenerator
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Point, Rect
from repro.index import SubscriptionIndex


def make_sub(sub_id, *predicates, radius=1000.0):
    return Subscription(sub_id, BooleanExpression(predicates), radius)


class TestSubscriptionIndex:
    def test_basic_match(self):
        index = SubscriptionIndex()
        index.insert(make_sub(1, Predicate("a", Operator.GE, 2)))
        index.insert(make_sub(2, Predicate("a", Operator.GE, 9)))
        event = Event(1, {"a": 5}, Point(0, 0))
        assert {s.sub_id for s in index.match_event(event)} == {1}

    def test_multi_predicate_conjunction(self):
        index = SubscriptionIndex()
        index.insert(
            make_sub(1, Predicate("a", Operator.GE, 2), Predicate("b", Operator.EQ, 1))
        )
        assert not index.match_event(Event(1, {"a": 5}, Point(0, 0)))
        assert not index.match_event(Event(2, {"a": 5, "b": 2}, Point(0, 0)))
        assert index.match_event(Event(3, {"a": 5, "b": 1}, Point(0, 0)))

    @pytest.mark.parametrize(
        "op,operand,value,matches",
        [
            (Operator.EQ, 5, 5, True),
            (Operator.LT, 5, 4, True),
            (Operator.LT, 5, 5, False),
            (Operator.LE, 5, 5, True),
            (Operator.GT, 5, 6, True),
            (Operator.GT, 5, 5, False),
            (Operator.GE, 5, 5, True),
            (Operator.NE, 5, 4, True),
            (Operator.NE, 5, 5, False),
            (Operator.BETWEEN, (2, 6), 4, True),
            (Operator.BETWEEN, (2, 6), 7, False),
            (Operator.IN, frozenset({1, 3}), 3, True),
            (Operator.NOT_IN, frozenset({1, 3}), 2, True),
        ],
    )
    def test_every_operator_path(self, op, operand, value, matches):
        index = SubscriptionIndex()
        index.insert(make_sub(1, Predicate("a", op, operand)))
        got = index.match_event(Event(1, {"a": value}, Point(0, 0)))
        assert bool(got) is matches

    def test_delete_removes_subscription(self):
        index = SubscriptionIndex()
        sub = make_sub(1, Predicate("a", Operator.GE, 2))
        index.insert(sub)
        index.delete(sub)
        assert len(index) == 0
        assert not index.match_event(Event(1, {"a": 5}, Point(0, 0)))

    def test_delete_unknown_raises(self):
        index = SubscriptionIndex()
        with pytest.raises(KeyError):
            index.delete(make_sub(9, Predicate("a", Operator.GE, 2)))

    def test_duplicate_insert_rejected(self):
        index = SubscriptionIndex()
        index.insert(make_sub(1, Predicate("a", Operator.GE, 2)))
        with pytest.raises(ValueError):
            index.insert(make_sub(1, Predicate("b", Operator.EQ, 3)))

    def test_pivot_prune_with_frequency_hint(self):
        # "rare" is the rarest attribute, so subscriptions containing it are
        # pivoted there and events without "rare" skip that partition.
        index = SubscriptionIndex(frequency_hint={"common": 1000, "rare": 1})
        index.insert(
            make_sub(1, Predicate("common", Operator.GE, 0), Predicate("rare", Operator.GE, 0))
        )
        index.insert(make_sub(2, Predicate("common", Operator.GE, 0)))
        event_without_rare = Event(1, {"common": 5}, Point(0, 0))
        assert {s.sub_id for s in index.match_event(event_without_rare)} == {2}
        event_with_rare = Event(2, {"common": 5, "rare": 5}, Point(0, 0))
        assert {s.sub_id for s in index.match_event(event_with_rare)} == {1, 2}


class TestBoolIntAliasing:
    """Probe semantics must equal Predicate.matches on the alias matrix.

    Python compares bools as their integer values (``True == 1``), so the
    operator-group scans must too — pre-fix, ``_operand_key`` sorted
    bools into their own group and the inequality scans disagreed with
    :meth:`Predicate.matches` (PR 9 satellite 3)."""

    ALIAS_VALUES = [True, False, 0, 1, 2, 0.0, 1.0, 0.5]

    @pytest.mark.parametrize(
        "op",
        [Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE],
    )
    @pytest.mark.parametrize("operand", ALIAS_VALUES)
    def test_probe_agrees_with_predicate_matches(self, op, operand):
        index = SubscriptionIndex()
        predicate = Predicate("a", op, operand)
        index.insert(make_sub(1, predicate))
        for value in self.ALIAS_VALUES:
            got = bool(index.match_event(Event(1, {"a": value}, Point(0, 0))))
            assert got is predicate.matches(value), (op, operand, value)

    def test_equality_one_matches_true(self):
        index = SubscriptionIndex()
        index.insert(make_sub(1, Predicate("a", Operator.EQ, 1)))
        assert index.match_event(Event(1, {"a": True}, Point(0, 0)))

    def test_less_than_true_aliases_one(self):
        # Pre-fix: operand True lived in a separate ("bool", ...) group,
        # so the suffix scan for the numeric value 0 skipped it entirely.
        index = SubscriptionIndex()
        index.insert(make_sub(1, Predicate("a", Operator.LT, True)))
        assert index.match_event(Event(1, {"a": 0}, Point(0, 0)))
        assert not index.match_event(Event(2, {"a": 1}, Point(0, 0)))

    def test_between_and_set_operators_alias(self):
        between = Predicate("a", Operator.BETWEEN, (0, 1))
        member = Predicate("a", Operator.IN, frozenset({1, 3}))
        index = SubscriptionIndex()
        index.insert(make_sub(1, between))
        index.insert(make_sub(2, member))
        for value in self.ALIAS_VALUES:
            got = {s.sub_id for s in index.match_event(Event(1, {"a": value}, Point(0, 0)))}
            expected = {
                sub_id
                for sub_id, predicate in ((1, between), (2, member))
                if predicate.matches(value)
            }
            assert got == expected, value

    def test_mixed_type_operands_do_not_crash_matching(self):
        index = SubscriptionIndex()
        index.insert(make_sub(1, Predicate("a", Operator.LT, "m")))
        index.insert(make_sub(2, Predicate("a", Operator.GE, 5)))
        assert {s.sub_id for s in index.match_event(Event(1, {"a": 7}, Point(0, 0)))} == {2}
        assert {s.sub_id for s in index.match_event(Event(2, {"a": "b"}, Point(0, 0)))} == {1}


class TestBitmapPrefilter:
    def test_partition_skipped_without_required_attribute(self):
        index = SubscriptionIndex()
        index.insert(
            make_sub(1, Predicate("a", Operator.GE, 0), Predicate("b", Operator.GE, 0))
        )
        before = index.partitions_pruned
        assert not index.match_event(Event(1, {"a": 1}, Point(0, 0)))
        assert index.partitions_pruned == before + 1

    def test_common_mask_is_the_per_partition_intersection(self):
        index = SubscriptionIndex()
        index.insert(
            make_sub(1, Predicate("a", Operator.GE, 0), Predicate("b", Operator.GE, 0))
        )
        index.insert(make_sub(2, Predicate("a", Operator.GE, 0)))
        # sub 2 needs only "a", so the partition stays probeable for
        # b-less events — and sub 1 correctly stays unmatched.
        before = index.partitions_pruned
        assert {s.sub_id for s in index.match_event(Event(1, {"a": 1}, Point(0, 0)))} == {2}
        assert index.partitions_pruned == before

    def test_delete_restores_prunability(self):
        index = SubscriptionIndex()
        wide = make_sub(1, Predicate("a", Operator.GE, 0), Predicate("b", Operator.GE, 0))
        narrow = make_sub(2, Predicate("a", Operator.GE, 0))
        index.insert(wide)
        index.insert(narrow)
        index.delete(narrow)
        before = index.partitions_pruned
        assert not index.match_event(Event(1, {"a": 1}, Point(0, 0)))
        assert index.partitions_pruned == before + 1

    def test_prefilter_changes_no_results(self):
        # Correlated attribute pairs keep each partition's intersection
        # mask multi-bit, so the sweep actually exercises the skip path.
        rng = random.Random(11)
        index = SubscriptionIndex()
        subs = []
        pairs = [(0, 1), (2, 3), (4, 5)]
        for sub_id in range(30):
            first, second = rng.choice(pairs)
            predicates = [
                Predicate(f"a{first}", Operator.GE, rng.randint(0, 9)),
                Predicate(f"a{second}", Operator.GE, rng.randint(0, 9)),
            ]
            sub = Subscription(sub_id, BooleanExpression(predicates), 1000.0)
            subs.append(sub)
            index.insert(sub)
        for event_id in range(40):
            attrs = {
                f"a{a}": rng.randint(0, 9) for a in rng.sample(range(6), rng.randint(1, 4))
            }
            event = Event(event_id, attrs, Point(0, 0))
            expected = {s.sub_id for s in subs if s.be_matches(event)}
            assert {s.sub_id for s in index.match_event(event)} == expected
        assert index.partitions_pruned > 0  # the sweep must exercise the skip


class TestMatchBatch:
    def _random_pool(self, rng, sub_count=25):
        index = SubscriptionIndex()
        for sub_id in range(sub_count):
            predicates = []
            for _ in range(rng.randint(1, 3)):
                attr = f"a{rng.randint(0, 4)}"
                op = rng.choice(
                    [Operator.EQ, Operator.NE, Operator.LT, Operator.LE,
                     Operator.GT, Operator.GE, Operator.BETWEEN, Operator.IN]
                )
                if op is Operator.BETWEEN:
                    low = rng.randint(0, 8)
                    operand = (low, low + rng.randint(0, 4))
                elif op is Operator.IN:
                    operand = frozenset(rng.sample(range(10), rng.randint(1, 3)))
                else:
                    operand = rng.randint(0, 9)
                predicates.append(Predicate(attr, op, operand))
            index.insert(Subscription(sub_id, BooleanExpression(predicates), 1000.0))
        return index

    def _random_events(self, rng, count=64):
        return [
            Event(
                event_id,
                {f"a{a}": rng.randint(0, 9) for a in rng.sample(range(5), rng.randint(1, 4))},
                Point(0, 0),
            )
            for event_id in range(count)
        ]

    def test_empty_batch(self):
        assert SubscriptionIndex().match_batch([]) == []

    def test_batch_is_byte_identical_to_per_event(self):
        rng = random.Random(23)
        index = self._random_pool(rng)
        events = self._random_events(rng)
        per_event = [index.match_event(event) for event in events]
        batched = index.match_batch(events)
        # identical subscriptions in identical order, per event
        assert [[s.sub_id for s in row] for row in batched] == [
            [s.sub_id for s in row] for row in per_event
        ]

    def test_a_repeated_batch_runs_no_probe(self):
        rng = random.Random(5)
        index = self._random_pool(rng)
        events = self._random_events(rng, count=16)
        first = [[s.sub_id for s in row] for row in index.match_batch(events)]
        probes, hits = index.match_batch_probes, index.match_probe_memo_hits
        assert probes > 0
        again = [[s.sub_id for s in row] for row in index.match_batch(events)]
        assert again == first
        assert index.match_batch_probes == probes
        # every lookup of the first pass, probed or not, is a hit now
        assert index.match_probe_memo_hits == hits + (probes + hits)

    def test_an_insert_reprobes_only_the_layers_it_touched(self):
        pool = [
            make_sub(0, Predicate("a0", Operator.GE, 2), Predicate("a1", Operator.LT, 7)),
            make_sub(1, Predicate("a1", Operator.EQ, 3), Predicate("a2", Operator.GE, 1)),
            make_sub(2, Predicate("a2", Operator.NE, 4), Predicate("a3", Operator.LE, 5)),
            make_sub(3, Predicate("a0", Operator.IN, {1, 2, 3}), Predicate("a3", Operator.GT, 0)),
        ]
        # pivoted on a1 (no frequency hint: the alphabetically first
        # attribute), so it touches exactly partition a1's layers a1, a2
        newcomer = make_sub(9, Predicate("a1", Operator.GT, 4), Predicate("a2", Operator.LT, 8))
        rng = random.Random(17)
        events = [
            Event(event_id, {f"a{a}": rng.randint(0, 9) for a in range(4)}, Point(0, 0))
            for event_id in range(20)
        ]
        index = SubscriptionIndex()
        for sub in pool:
            index.insert(sub)
        index.match_batch(events)
        untouched = {
            (pivot, attribute): dict(layer.memo)
            for pivot, partition in index._partitions.items()
            for attribute, layer in partition.layers.items()
            if pivot != "a1"
        }
        probes = index.match_batch_probes
        index.insert(newcomer)
        got = [[s.sub_id for s in row] for row in index.match_batch(events)]
        distinct = lambda attribute: len({e.attributes[attribute] for e in events})
        assert index.match_batch_probes - probes == distinct("a1") + distinct("a2")
        assert untouched and all(untouched.values())
        for (pivot, attribute), memo in untouched.items():
            assert index._partitions[pivot].layers[attribute].memo == memo
        fresh = SubscriptionIndex()
        for sub in pool + [newcomer]:
            fresh.insert(sub)
        assert got == [[s.sub_id for s in row] for row in fresh.match_batch(events)]
        assert any(9 in row for row in got)

    def test_batch_with_churn(self):
        rng = random.Random(31)
        index = self._random_pool(rng)
        events = self._random_events(rng, count=20)
        victims = [index._subscriptions[sub_id][0] for sub_id in range(0, 25, 2)]
        for sub in victims:
            index.delete(sub)
        per_event = [[s.sub_id for s in index.match_event(e)] for e in events]
        batched = [[s.sub_id for s in row] for row in index.match_batch(events)]
        assert batched == per_event


class TestProbeMemo:
    def test_a_seeded_storm_reads_its_memo_hit_share(self):
        """Memo hit share and probes per event on a 500-subscriber storm
        that replaces two subscribers per 64-event batch, as numbers in
        the log — the traffic share the memo is worth, by its counters."""
        generator = TwitterLikeGenerator(Rect(0.0, 0.0, 10_000.0, 10_000.0), seed=7)
        live = deque(generator.subscriptions(500, size=3))
        replacements = iter(generator.subscriptions(80, size=3, start_id=1_000, seed_offset=1))
        stream = generator.event_stream(seed_offset=2)
        index = SubscriptionIndex(generator.frequency_hint())
        for sub in live:
            index.insert(sub)
        events = 0
        for _ in range(40):
            for _ in range(2):
                index.delete(live.popleft())
                live.append(next(replacements))
                index.insert(live[-1])
            batch = list(itertools.islice(stream, 64))
            rows = index.match_batch(batch)
            events += len(batch)
        for event, row in zip(batch, rows):
            assert {s.sub_id for s in row} == {s.sub_id for s in live if s.be_matches(event)}
        probes, hits = index.match_batch_probes, index.match_probe_memo_hits
        share = hits / (hits + probes)
        print(f"\nprobe memo over {events} events: hit share {share:.3f}, "
              f"probes per event {probes / events:.3f}, "
              f"lookups per event {(hits + probes) / events:.2f}")
        assert share > 0.8


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_match_event_agrees_with_brute_force(data):
    rng = random.Random(data.draw(st.integers(0, 99999)))
    index = SubscriptionIndex()
    subs = []
    for sub_id in range(data.draw(st.integers(1, 25))):
        predicates = []
        for _ in range(rng.randint(1, 3)):
            attr = f"a{rng.randint(0, 4)}"
            op = rng.choice(
                [Operator.EQ, Operator.NE, Operator.LT, Operator.LE,
                 Operator.GT, Operator.GE, Operator.BETWEEN, Operator.IN]
            )
            if op is Operator.BETWEEN:
                low = rng.randint(0, 8)
                operand = (low, low + rng.randint(0, 4))
            elif op is Operator.IN:
                operand = frozenset(rng.sample(range(10), rng.randint(1, 3)))
            else:
                operand = rng.randint(0, 9)
            predicates.append(Predicate(attr, op, operand))
        sub = Subscription(sub_id, BooleanExpression(predicates), 1000.0)
        subs.append(sub)
        index.insert(sub)
    for _ in range(10):
        attrs = {f"a{rng.randint(0, 4)}": rng.randint(0, 9) for _ in range(rng.randint(1, 5))}
        event = Event(0, attrs, Point(0, 0))
        expected = {s.sub_id for s in subs if s.be_matches(event)}
        got = {s.sub_id for s in index.match_event(event)}
        assert got == expected
