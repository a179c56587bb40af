"""The subscription index: OpIndex over boolean-expression subscriptions.

Section 5 of the paper adopts an existing subscription index (OpIndex) for
the event-arrival path: given a freshly published event, find every stored
subscription whose boolean expression the event satisfies.  This module
implements that index natively:

* **First layer** — subscriptions are partitioned by their *pivot
  attribute*, the least frequent of their own attributes under a fixed
  global frequency order.  A subscription's pivot is one of its own
  attributes, and a matching event must carry every subscription
  attribute, so only the partitions pivoted on one of the *event's*
  attributes can contain matches — the signature OpIndex prune.
* **Second layer** — inside a partition, predicates are grouped by
  attribute and by operator class so that each event value probes the
  relevant predicates with binary search where the operator allows it
  (equality buckets; operand-sorted lists for the inequalities).

The counting algorithm then reports every subscription whose satisfied-
predicate counter reaches its size |s|.

Two accelerations sit on top (DESIGN.md §16):

* an **attribute-bitmap prefilter** — every partition keeps the
  intersection of its clauses' required-attribute bitmasks; an event
  whose own attribute bitmask is not a superset cannot complete any
  clause there, so the partition is skipped without a single probe;
* a **probe memo** — every attribute layer keeps the result of each
  probe it ran, ``operand_key(value) -> clause slots``, until the next
  insert or delete that touches that layer.  Clause slots are assigned
  per partition at insert and kept until delete, so a memo entry stays
  valid while other layers change: an event pays a probe only for the
  (layer, value) pairs a write touched since they were last probed, and
  its counting runs over the partition's flat per-slot arrays.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..expressions import Event, Operator, Predicate, Subscription, operand_key
from ..expressions.dnf import clauses_of

#: (sub_id, clause index): one counting unit of the algorithm.
_ClauseKey = Tuple[int, int]

#: probe-memo entries per attribute layer beyond this are assumed
#: pathological (a stream of distinct float values) and the memo is
#: dropped wholesale
_PROBE_MEMO_LIMIT = 128


class _AttributePredicates:
    """All predicates on one attribute within one pivot partition, each
    stored under its clause's partition slot."""

    __slots__ = ("equals", "less", "less_keys", "greater", "greater_keys", "linear", "memo")

    def __init__(self) -> None:
        # operand -> slots (EQ probes are hash lookups; dict hashing
        # already aliases True == 1 exactly like Predicate.matches)
        self.equals: Dict[object, List[int]] = defaultdict(list)
        # (operand, strict, slot) for < / <= : satisfied when value <
        # operand (or <=); kept sorted by operand so a probe is a suffix
        # scan.  ``less_keys`` mirrors the list with each entry's
        # operand_key so scans never recompute it.
        self.less: List[Tuple[object, bool, int]] = []
        self.less_keys: List[Tuple[str, object]] = []
        # (operand, strict, slot) for > / >= : prefix scan.
        self.greater: List[Tuple[object, bool, int]] = []
        self.greater_keys: List[Tuple[str, object]] = []
        # everything else (BETWEEN, NE, IN, NOT_IN): linear probe.
        self.linear: List[Tuple[Predicate, int]] = []
        # operand_key(value) -> hits_for(value); any write clears it
        self.memo: Dict[Tuple[str, object], List[int]] = {}

    def add(self, predicate: Predicate, slot: int) -> None:
        """Register one predicate under its operator group.

        An operand unequal to itself (NaN) has no place in an equality
        bucket or an operand-sorted list — it would mislead every bisect
        beside it — so such a predicate joins the linear group, where
        :meth:`Predicate.matches` decides it (``= nan`` and ``<= nan``
        hold for no value).
        """
        self.memo.clear()
        op = predicate.operator
        if predicate.operand != predicate.operand:
            self.linear.append((predicate, slot))
        elif op is Operator.EQ:
            self.equals[predicate.operand].append(slot)
        elif op in (Operator.LT, Operator.LE):
            self._insort(self.less, self.less_keys,
                         (predicate.operand, op is Operator.LT, slot))
        elif op in (Operator.GT, Operator.GE):
            self._insort(self.greater, self.greater_keys,
                         (predicate.operand, op is Operator.GT, slot))
        else:
            self.linear.append((predicate, slot))

    @staticmethod
    def _insort(entries, keys, entry) -> None:
        entry_key = operand_key(entry[0])
        position = bisect.bisect_right(keys, entry_key)
        entries.insert(position, entry)
        keys.insert(position, entry_key)

    def remove(self, predicate: Predicate, slot: int) -> None:
        """Remove one registered predicate."""
        self.memo.clear()
        op = predicate.operator
        if predicate.operand != predicate.operand:
            self.linear.remove((predicate, slot))
        elif op is Operator.EQ:
            bucket = self.equals[predicate.operand]
            bucket.remove(slot)
            if not bucket:
                del self.equals[predicate.operand]
        elif op in (Operator.LT, Operator.LE):
            position = self.less.index((predicate.operand, op is Operator.LT, slot))
            del self.less[position]
            del self.less_keys[position]
        elif op in (Operator.GT, Operator.GE):
            position = self.greater.index((predicate.operand, op is Operator.GT, slot))
            del self.greater[position]
            del self.greater_keys[position]
        else:
            self.linear.remove((predicate, slot))

    def __len__(self) -> int:
        return (
            sum(len(bucket) for bucket in self.equals.values())
            + len(self.less)
            + len(self.greater)
            + len(self.linear)
        )

    def hits_for(self, value) -> List[int]:
        """Slots of every predicate ``value`` satisfies, in the canonical
        probe order: equality bucket, ``<``/``<=`` suffix, ``>``/``>=``
        prefix, then the linear group.

        The inequality scans are bounded to the value's type group —
        operands from another group are never ``<``/``>`` comparable, so
        a range predicate across groups fails, exactly as
        :meth:`Predicate.matches` answers.  A value unequal to itself
        (NaN) is unordered and equals nothing, so only the linear group
        can hold for it.
        """
        if value != value:
            return [slot for predicate, slot in self.linear if predicate.matches(value)]
        value_key = operand_key(value)
        group = value_key[0]
        out: List[int] = list(self.equals.get(value, ()))
        # A < o is satisfied iff o > value: the suffix of the operand-
        # sorted list starting at value (minus the strict o == value run).
        less, less_keys = self.less, self.less_keys
        index = bisect.bisect_left(less_keys, value_key)
        while index < len(less) and less_keys[index][0] == group:
            operand, strict, slot = less[index]
            # operand >= value here; a strict < with operand == value fails.
            if not strict or operand != value:
                out.append(slot)
            index += 1
        # A > o is satisfied iff o < value: the in-group prefix below
        # value (plus the o == value run for >=).
        group_lo = bisect.bisect_left(self.greater_keys, (group,))
        stop = bisect.bisect_right(self.greater_keys, value_key)
        for operand, strict, slot in self.greater[group_lo:stop]:
            if not strict or operand != value:
                out.append(slot)
        for predicate, slot in self.linear:
            if predicate.matches(value):
                out.append(slot)
        return out

    def remember(self, value, value_key: Tuple[str, object]) -> List[int]:
        """Probe ``value`` and memoise its slots under ``value_key``.

        Values with equal keys (``True``, ``1``, ``1.0``) satisfy the
        same predicates, so they share one entry.
        """
        memo = self.memo
        if len(memo) >= _PROBE_MEMO_LIMIT:
            memo.clear()
        slots = memo[value_key] = self.hits_for(value)
        return slots


class _Partition:
    """One pivot partition: per-attribute operator groups, the
    attribute-bitmap prefilter state, and the clause slots the layers
    store — persistent from insert to delete, so a layer's probe memo
    stays valid while other layers change."""

    __slots__ = (
        "layers", "clause_masks", "common_mask",
        "slot_of", "keys", "sizes", "counts", "free",
    )

    def __init__(self) -> None:
        self.layers: Dict[str, _AttributePredicates] = {}
        # clause key -> bitmask of the attributes the clause requires
        self.clause_masks: Dict[_ClauseKey, int] = {}
        # intersection of all clause masks: attributes *every* clause
        # here requires.  An event not carrying all of them cannot
        # complete any clause in this partition (each attribute layer
        # contributes at most the clause's predicate count on that
        # attribute, so a missing required attribute keeps every counter
        # short of |s|) — the partition is skippable without probing.
        self.common_mask: int = 0
        # clause key -> slot; per slot its clause key, predicate count
        # and counter (0 between events); released slots are reused
        self.slot_of: Dict[_ClauseKey, int] = {}
        self.keys: List[Optional[_ClauseKey]] = []
        self.sizes: List[int] = []
        self.counts: List[int] = []
        self.free: List[int] = []

    def assign(self, key: _ClauseKey, size: int) -> int:
        """A slot for a newly inserted clause of ``size`` predicates."""
        if self.free:
            slot = self.free.pop()
            self.keys[slot] = key
            self.sizes[slot] = size
        else:
            slot = len(self.keys)
            self.keys.append(key)
            self.sizes.append(size)
            self.counts.append(0)
        self.slot_of[key] = slot
        return slot

    def release(self, key: _ClauseKey) -> None:
        """Return a deleted clause's slot to the free list."""
        slot = self.slot_of.pop(key)
        self.keys[slot] = None
        self.free.append(slot)

    def recompute_common(self) -> None:
        """Rebuild the required-attribute intersection after a delete."""
        common = -1  # all-ones: identity of the intersection
        for mask in self.clause_masks.values():
            common &= mask
        self.common_mask = common if common != -1 else 0


class SubscriptionIndex:
    """OpIndex over subscriptions: event -> be-matching subscription ids."""

    def __init__(self, frequency_hint: Optional[Mapping[str, int]] = None) -> None:
        self._order: Dict[str, int] = dict(frequency_hint or {})
        self._partitions: Dict[str, _Partition] = {}
        # sub_id -> (subscription, per-clause pivots in clause order)
        self._subscriptions: Dict[int, Tuple[Subscription, Tuple[str, ...]]] = {}
        # attribute name -> bit in the prefilter masks, assigned on first use
        self._attr_bits: Dict[str, int] = {}
        #: (layer, value) probes the matcher actually ran (memo misses)
        self.match_batch_probes: int = 0
        #: (layer, value) probe results the matcher took from a layer memo
        self.match_probe_memo_hits: int = 0
        #: (event, partition) pairs the bitmap prefilter skipped entirely
        self.partitions_pruned: int = 0

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: int) -> bool:
        return sub_id in self._subscriptions

    def _pivot_of(self, clause) -> str:
        return min(
            clause.attributes,
            key=lambda a: (self._order.get(a, 0), a),
        )

    def _bit_of(self, attribute: str) -> int:
        bit = self._attr_bits.get(attribute)
        if bit is None:
            bit = 1 << len(self._attr_bits)
            self._attr_bits[attribute] = bit
        return bit

    def insert(self, subscription: Subscription) -> None:
        """Register a subscription; a DNF registers one entry per clause."""
        if subscription.sub_id in self._subscriptions:
            raise ValueError(f"duplicate subscription id {subscription.sub_id}")
        pivots = []
        for clause_index, clause in enumerate(clauses_of(subscription.expression)):
            key = (subscription.sub_id, clause_index)
            pivot = self._pivot_of(clause)
            pivots.append(pivot)
            partition = self._partitions.get(pivot)
            if partition is None:
                partition = _Partition()
                self._partitions[pivot] = partition
            slot = partition.assign(key, len(clause.predicates))
            clause_mask = 0
            for predicate in clause:
                attribute = predicate.attribute
                layer = partition.layers.get(attribute)
                if layer is None:
                    layer = _AttributePredicates()
                    partition.layers[attribute] = layer
                layer.add(predicate, slot)
                clause_mask |= self._bit_of(attribute)
            partition.clause_masks[key] = clause_mask
            if len(partition.clause_masks) == 1:
                partition.common_mask = clause_mask
            else:
                partition.common_mask &= clause_mask
        self._subscriptions[subscription.sub_id] = (subscription, tuple(pivots))

    def delete(self, subscription: Subscription) -> None:
        """Remove a subscription's clauses; empty layers are pruned."""
        stored = self._subscriptions.pop(subscription.sub_id, None)
        if stored is None:
            raise KeyError(f"subscription {subscription.sub_id} is not in the index")
        stored_sub, pivots = stored
        for clause_index, (clause, pivot) in enumerate(
            zip(clauses_of(stored_sub.expression), pivots)
        ):
            key = (stored_sub.sub_id, clause_index)
            partition = self._partitions[pivot]
            slot = partition.slot_of[key]
            for predicate in clause:
                layer = partition.layers[predicate.attribute]
                layer.remove(predicate, slot)
                if not len(layer):
                    del partition.layers[predicate.attribute]
            partition.release(key)
            del partition.clause_masks[key]
            if not partition.layers:
                del self._partitions[pivot]
            else:
                partition.recompute_common()

    def match_event(self, event: Event) -> List[Subscription]:
        """All stored subscriptions whose expression ``event`` satisfies.

        A subscription matches when any of its clauses is fully counted;
        each subscription is reported once.
        """
        return self.match_batch((event,))[0]

    def match_batch(self, events: Iterable[Event]) -> List[List[Subscription]]:
        """Per-event be-matches, one event at a time.

        For each event, every partition pivoted on one of its attributes
        that survives the bitmap prefilter takes one cell per event
        attribute it has a layer for — from the layer's memo, or probed
        and memoised on a miss — then counts the cells' slots in
        attribute order, recording each slot on its first increment.
        Replaying that first-increment order reports subscriptions in
        the per-attribute probe order, and zeroes the counters for the
        next event.
        """
        partitions = self._partitions
        subscriptions = self._subscriptions
        bits = self._attr_bits
        probes = memo_hits = pruned = 0
        results: List[List[Subscription]] = []
        for event in events:
            attributes = event.attributes
            # Attributes no subscription ever mentioned have no bit —
            # they cannot appear in any clause mask either, so omitting
            # them keeps the subset test exact.
            mask = 0
            for attribute in attributes:
                bit = bits.get(attribute)
                if bit is not None:
                    mask |= bit
            value_keys: Optional[Dict[str, Tuple[str, object]]] = None
            matched: List[Subscription] = []
            matched_ids: Set[int] = set()
            for pivot in attributes:
                partition = partitions.get(pivot)
                if partition is None:
                    continue
                if partition.common_mask & ~mask:
                    # Some attribute every clause here requires is missing.
                    pruned += 1
                    continue
                if value_keys is None:
                    value_keys = {a: operand_key(v) for a, v in attributes.items()}
                layers = partition.layers
                # Every cell is in hand before a counter moves, so a probe
                # that raises leaves the counters at 0.
                cells = []
                for attribute, value in attributes.items():
                    layer = layers.get(attribute)
                    if layer is None:
                        continue
                    cell = layer.memo.get(value_keys[attribute])
                    if cell is None:
                        cell = layer.remember(value, value_keys[attribute])
                        probes += 1
                    else:
                        memo_hits += 1
                    cells.append(cell)
                counts = partition.counts
                order: List[int] = []
                for cell in cells:
                    for slot in cell:
                        count = counts[slot]
                        if not count:
                            order.append(slot)
                        counts[slot] = count + 1
                sizes, keys = partition.sizes, partition.keys
                for slot in order:
                    if counts[slot] == sizes[slot]:
                        sub_id = keys[slot][0]
                        if sub_id not in matched_ids:
                            matched_ids.add(sub_id)
                            matched.append(subscriptions[sub_id][0])
                    counts[slot] = 0
            results.append(matched)
        self.match_batch_probes += probes
        self.match_probe_memo_hits += memo_hits
        self.partitions_pruned += pruned
        return results
