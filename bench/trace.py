"""Spans recorded from outside the program, and the proxies that record them.

A :class:`Recorder` keeps one in-memory span per call into a layer —
``(name, start, end, parent)`` — and nothing is written until the run is
over.  The proxies sit in the seams the public constructors already
offer (``strategy``, ``event_index``, ``subscription_index``, the fleet's
``executor``) and around the public ``impact_index`` attribute, so no
file under ``src/`` knows it is being timed.  A layer's self time is its
spans' duration minus the part their direct children cover.

Span names are ``<layer>:<operation>``; :func:`Recorder.totals` folds
them into ``{name: Total(calls, busy, self)}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]


@dataclass(frozen=True)
class Mark:
    """A position in the span log with the recorder's counters there."""

    position: int
    be_matching_pairs: int
    events_matched: int
    cells_kept: int
    cells_examined: int


@dataclass
class Total:
    """Calls, busy seconds and self seconds of one span name."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0


class _Scope:
    """``with recorder.span(name):`` — the driver-side way to open a span."""

    __slots__ = ("_recorder", "_name", "_index", "_start")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Scope":
        recorder = self._recorder
        self._index = len(recorder.spans)
        recorder.spans.append(None)
        recorder._stack.append(self._index)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        recorder = self._recorder
        recorder._stack.pop()
        parent = recorder._stack[-1] if recorder._stack else -1
        recorder.spans[self._index] = (self._name, self._start, end, parent)


class Recorder:
    """The in-memory span log of one traced run (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: be-matching (event, subscription) pairs the subscription index
        #: returned — the denominator of the impact index's hit ratio
        self.be_matching_pairs = 0
        self.events_matched = 0
        #: safe cells kept / cells examined, summed over constructions
        self.cells_kept = 0
        self.cells_examined = 0

    def span(self, name: str) -> _Scope:
        """A context manager recording one span named ``name``."""
        return _Scope(self, name)

    def mark(self) -> "Mark":
        """The current end of the log and the counters, to bound a window."""
        return Mark(
            len(self.spans), self.be_matching_pairs, self.events_matched,
            self.cells_kept, self.cells_examined,
        )

    def totals(self, since: int = 0, until: Optional[int] = None) -> Dict[str, Total]:
        """Per-name calls, busy seconds and self seconds of the spans
        opened in ``[since, until)`` (log positions, see :meth:`mark`)."""
        spans = self.spans
        until = len(spans) if until is None else until
        child_time = [0.0] * until
        for index in range(since, until):
            span = spans[index]
            if span is not None and span[3] >= since:
                child_time[span[3]] += span[2] - span[1]
        totals: Dict[str, Total] = {}
        for index in range(since, until):
            span = spans[index]
            if span is None:
                continue
            total = totals.setdefault(span[0], Total())
            duration = span[2] - span[1]
            total.calls += 1
            total.busy += duration
            total.self_time += duration - child_time[index]
        return totals

    def durations(self, name: str, since: int = 0, until: Optional[int] = None) -> List[float]:
        """Every duration recorded under ``name`` in ``[since, until)``."""
        return [
            span[2] - span[1]
            for span in self.spans[since:until]
            if span is not None and span[0] == name
        ]

    # ------------------------------------------------------------------
    # Proxies for the constructor seams
    # ------------------------------------------------------------------
    def _spanned(self, name: str, method: Callable) -> Callable:
        def timed(*args, **kwargs):
            with _Scope(self, name):
                return method(*args, **kwargs)

        return timed

    def _proxy(self, target, spans: Dict[str, str], **overrides: Callable) -> "_Timed":
        methods = {
            attribute: self._spanned(name, getattr(target, attribute))
            for attribute, name in spans.items()
            if hasattr(target, attribute)
        }
        methods.update(overrides)
        return _Timed(target, methods)

    def wrap_server(self, server):
        """Time the public operations of a server (or fleet coordinator)."""
        return self._proxy(
            server,
            {
                "publish_batch": "system.server:publish",
                "publish": "system.server:publish",
                "report_location": "system.server:report",
                "subscribe": "system.server:subscribe",
                "unsubscribe": "system.server:unsubscribe",
                "resync": "system.server:resync",
                "expire_due_events": "system.server:expire",
            },
        )

    def wrap_strategy(self, strategy):
        """Time ``construct`` and keep the kept/examined cell counts."""
        construct = strategy.construct

        def timed_construct(request):
            with _Scope(self, "core:construct"):
                pair = construct(request)
            self.cells_kept += pair.safe.area_cells()
            self.cells_examined += pair.cells_examined
            return pair

        return self._proxy(strategy, {}, construct=timed_construct)

    def wrap_event_index(self, index):
        """Time the BEQ-Tree's writes, matches and leaf walks."""
        walk = index.leaves_intersecting_rect

        def timed_walk(rect):
            # the on-demand matching field pulls leaves lazily; walking
            # eagerly inside the span charges the tree, not the caller
            with _Scope(self, "index.beq_tree:match"):
                return list(walk(rect))

        return self._proxy(
            index,
            {
                "insert": "index.beq_tree:insert",
                "insert_batch": "index.beq_tree:insert",
                "delete": "index.beq_tree:delete",
                "match": "index.beq_tree:match",
                "match_batch": "index.beq_tree:match",
                "be_match": "index.beq_tree:match",
            },
            leaves_intersecting_rect=timed_walk,
        )

    def wrap_subscription_index(self, index):
        """Time OpIndex matching and writes; count be-matching pairs."""
        match_batch = index.match_batch

        def timed_match_batch(events):
            with _Scope(self, "index.subscription_index:match"):
                matched = match_batch(events)
            self.events_matched += len(events)
            self.be_matching_pairs += sum(map(len, matched))
            return matched

        # the serving path only ever matches in batches; the per-event
        # entry point is timed but its pairs are not needed
        return self._proxy(
            index,
            {
                "insert": "index.subscription_index:write",
                "delete": "index.subscription_index:write",
                "match_event": "index.subscription_index:match",
            },
            match_batch=timed_match_batch,
        )

    def wrap_impact_index(self, index):
        """Time impact-region probes and region installs."""
        return self._proxy(
            index,
            {
                "covers": "index.impact_index:probe",
                "match_batch": "index.impact_index:probe",
                "subscribers_covering": "index.impact_index:probe",
                "replace": "index.impact_index:write",
                "replace_region": "index.impact_index:write",
                "remove": "index.impact_index:write",
            },
        )

    def wrap_executor(self, executor):
        """Time the coordinator's shard fan-outs (pipe round trips)."""
        return self._proxy(executor, {"run": "system.sharding:fanout"})


class _Timed:
    """Forward everything to ``target`` except the given timed ``methods``.

    Timed methods are bound once as instance attributes, so a timed call
    costs one closure call over the untimed one; everything else —
    counters read with ``getattr``, ``len()``, attribute writes — reaches
    the target unchanged.
    """

    def __init__(self, target, methods: Dict[str, Callable]) -> None:
        self.__dict__["_target"] = target
        self.__dict__.update(methods)

    def __getattr__(self, attribute):
        return getattr(self.__dict__["_target"], attribute)

    def __setattr__(self, attribute, value) -> None:
        setattr(self.__dict__["_target"], attribute, value)

    def __len__(self) -> int:
        return len(self.__dict__["_target"])

    def __contains__(self, item) -> bool:
        return item in self.__dict__["_target"]
