"""Observability: span tracing, latency histograms, unified metrics.

The paper's evaluation is *measurement* — §3.3's cost model and
Appendix D's server-computation figures stand or fall with the
accounting behind them.  Beside the plain counters
(:class:`~repro.system.metrics.CommunicationStats`) this module is the
one instrument for time:

* :class:`LatencyHistogram` — fixed log-scale buckets over seconds with
  p50/p95/p99 estimates; histograms merge bucket-wise, so shards and
  reruns aggregate without losing the distribution;
* :class:`SpanTracer` — near-zero-overhead, nestable context-manager
  spans over the hot stages of the pipeline (``match``, ``construct``,
  ``repair``, ``ship``, ``publish``, frame ``read``/``decode``/
  ``dispatch``/``drain``, ...), each feeding one histogram; an optional
  slow-span threshold logs outliers as they happen;
* :class:`MetricsRegistry` — the one handle unifying the counter
  accumulator and the tracer: merging, and the two ways out — the
  ``StatsSnapshot`` wire message (frame type 13) and a
  ``render_prometheus()`` text exporter in the Prometheus exposition
  format.

Overhead discipline: the tracer is always on, and a span costs two
``perf_counter()`` calls plus one histogram insert.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, List, Optional, Tuple

from time import perf_counter

from .metrics import CommunicationStats

logger = logging.getLogger(__name__)

__all__ = [
    "BUCKET_BOUNDS",
    "LatencyHistogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "render_prometheus",
]

# ----------------------------------------------------------------------
# Histogram buckets
# ----------------------------------------------------------------------
#: Upper bounds (seconds) of the fixed log-scale buckets: powers of two
#: from 1 µs to ~67 s, 27 bounds plus an implicit +Inf overflow bucket.
#: Fixed bounds are what make histograms a mergeable wire type — every
#: snapshot, whatever produced it, buckets identically.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(27))

_BUCKET_COUNT = len(BUCKET_BOUNDS) + 1  # + the overflow bucket
#: log2 of the first bound; bucket index is computed arithmetically
#: (one log2 call) instead of scanning the bounds list
_LOG2_FIRST = math.log2(1e-6)


class LatencyHistogram:
    """Fixed-bucket log-scale latency histogram over seconds.

    ``counts[i]`` holds observations with
    ``BUCKET_BOUNDS[i-1] < value <= BUCKET_BOUNDS[i]`` (the first bucket
    catches everything at or below 1 µs, the last everything beyond the
    largest bound).  The exact sum is kept alongside, so mean latency
    does not suffer bucket quantisation.
    """

    __slots__ = ("counts", "total_seconds")

    def __init__(
        self,
        counts: Optional[List[int]] = None,
        total_seconds: float = 0.0,
    ) -> None:
        if counts is None:
            counts = [0] * _BUCKET_COUNT
        elif len(counts) != _BUCKET_COUNT:
            raise ValueError(
                f"expected {_BUCKET_COUNT} buckets, got {len(counts)}"
            )
        self.counts = counts
        self.total_seconds = total_seconds

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, seconds: float) -> None:
        """Insert one observation (negative durations clamp to zero)."""
        if seconds <= 1e-6:
            index = 0
        else:
            # bucket i covers (bounds[i-1], bounds[i]]; the ceil keeps
            # exact powers of two on the inclusive side
            index = math.ceil(math.log2(seconds) - _LOG2_FIRST)
            if index >= _BUCKET_COUNT:
                index = _BUCKET_COUNT - 1
        self.counts[index] += 1
        if seconds > 0.0:
            self.total_seconds += seconds

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total observations (every record lands in exactly one bucket)."""
        return sum(self.counts)

    def quantile(self, q: float) -> float:
        """The upper bound of the bucket holding the ``q``-quantile.

        A conservative (never-underestimating) estimate; the overflow
        bucket reports the largest finite bound.  Returns 0.0 with no
        observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        total = self.count
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, bucket in enumerate(self.counts):
            cumulative += bucket
            if cumulative >= rank and bucket:
                return BUCKET_BOUNDS[min(index, len(BUCKET_BOUNDS) - 1)]
        return BUCKET_BOUNDS[-1]

    @property
    def p50(self) -> float:
        """Median latency (bucket upper bound)."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th-percentile latency (bucket upper bound)."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th-percentile latency (bucket upper bound)."""
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        """Exact mean latency (the sum is kept unquantised)."""
        total = self.count
        return self.total_seconds / total if total else 0.0

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def merged_with(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Bucket-wise sum with another histogram (inputs untouched).

        This is the *only* correct way to combine two histograms — the
        counts vectors add element by element so the merged distribution
        is exactly the union of observations.  Collapsing either side to
        an integer first would destroy the distribution.
        """
        return LatencyHistogram(
            [a + b for a, b in zip(self.counts, other.counts)],
            self.total_seconds + other.total_seconds,
        )

    def summary(self) -> Dict[str, float]:
        """The scalar digest benches and reports embed."""
        return {
            "count": self.count,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "mean": self.mean,
            "total_seconds": self.total_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, p50={self.p50:g}, "
            f"p99={self.p99:g}, total={self.total_seconds:g}s)"
        )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One timed region of code.

    Spans are plain context managers, so they nest naturally — a
    ``construct`` span inside a ``publish`` span times the construction
    and contributes to both histograms.  Every ``span()`` call hands out
    a fresh object: interleaved spans of the same stage (two TCP
    connections awaiting ``drain`` concurrently) each keep their own
    start time, which a shared per-stage object would corrupt.
    """

    __slots__ = ("_tracer", "stage", "histogram", "_started")

    def __init__(self, tracer: "SpanTracer", stage: str,
                 histogram: LatencyHistogram) -> None:
        self._tracer = tracer
        self.stage = stage
        self.histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = perf_counter() - self._started
        self.histogram.record(elapsed)
        threshold = self._tracer.slow_threshold
        if threshold is not None and elapsed >= threshold:
            self._tracer._on_slow(self.stage, elapsed)


class SpanTracer:
    """Hands out spans and owns the per-stage latency histograms.

    ``span(stage)`` is the entire API surface the hot paths see::

        with tracer.span("match"):
            matches = list(index.match_event(event))

    A ``slow_threshold`` (seconds) turns the tracer into a live
    profiler: any span at or above it is logged as a warning the moment
    it closes.
    """

    def __init__(self, *, slow_threshold: Optional[float] = None) -> None:
        self.slow_threshold = slow_threshold
        #: stage name -> histogram; populated lazily as stages first run
        self.histograms: Dict[str, LatencyHistogram] = {}

    def span(self, stage: str):
        """A fresh context manager timing one occurrence of ``stage``."""
        histogram = self.histograms.get(stage)
        if histogram is None:
            histogram = self.histograms[stage] = LatencyHistogram()
        return Span(self, stage, histogram)

    def histogram(self, stage: str) -> LatencyHistogram:
        """The histogram for ``stage`` (created empty if never traced)."""
        return self.histograms.setdefault(stage, LatencyHistogram())

    def _on_slow(self, stage: str, elapsed: float) -> None:
        logger.warning("slow span: %s took %.6fs (threshold %.6fs)",
                       stage, elapsed, self.slow_threshold)

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-stage scalar digests, stages sorted by name."""
        return {
            stage: self.histograms[stage].summary()
            for stage in sorted(self.histograms)
        }


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """One handle over everything the system measures.

    Unifies the counter accumulator (:class:`CommunicationStats`) with
    the span tracer's histograms, so merges and exports see a single
    consistent surface.  The server owns one; the TCP layer
    serves it as frame type 13; the CLI and benchmarks print it.
    """

    def __init__(self, stats: Optional[CommunicationStats] = None) -> None:
        self.stats = stats if stats is not None else CommunicationStats()
        self.tracer = SpanTracer()
        #: readings that are no :class:`CommunicationStats` field because
        #: only some deployments have them (a process fleet's pipe bytes)
        self.gauges: Dict[str, float] = {}

    def span(self, stage: str):
        """Shorthand for ``registry.tracer.span(stage)``."""
        return self.tracer.span(stage)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merged_with(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Counters and gauges add; histograms merge bucket-wise.

        The distinction matters: a histogram is a distribution, and the
        only lossless combination is element-wise bucket addition —
        which :meth:`LatencyHistogram.merged_with` implements — never a
        scalar sum.
        """
        merged = MetricsRegistry(self.stats.merged_with(other.stats))
        for stage in sorted(set(self.tracer.histograms) | set(other.tracer.histograms)):
            left = self.tracer.histograms.get(stage)
            right = other.tracer.histograms.get(stage)
            if left is None:
                combined = right.merged_with(LatencyHistogram())
            elif right is None:
                combined = left.merged_with(LatencyHistogram())
            else:
                combined = left.merged_with(right)
            merged.tracer.histograms[stage] = combined
        for name in sorted(set(self.gauges) | set(other.gauges)):
            merged.gauges[name] = self.gauges.get(name, 0) + other.gauges.get(name, 0)
        return merged

    # ------------------------------------------------------------------
    # Prometheus export
    # ------------------------------------------------------------------
    def render_prometheus(self, prefix: str = "elaps") -> str:
        """The registry in the Prometheus text exposition format."""
        return render_prometheus(
            self.stats.as_dict(),
            self.tracer.histograms,
            prefix=prefix,
            gauges=self.gauges,
        )


def _format_value(value: float) -> str:
    """A float in exposition format (integers stay integral)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_bound(bound: float) -> str:
    """A ``le`` label value; trailing-zero-free for readability."""
    return f"{bound:.9g}"


def render_prometheus(
    counters: Dict[str, object],
    histograms: Dict[str, LatencyHistogram],
    *,
    prefix: str = "elaps",
    gauges: Optional[Dict[str, float]] = None,
) -> str:
    """Counters, histograms and gauges as Prometheus text exposition format.

    Counter fields become ``<prefix>_<name>_total`` counters (the
    ``*_high_water`` queue-depth marks become gauges, ``server_seconds``
    keeps its unit in the name); every
    span stage becomes one labelled
    series of the single ``<prefix>_stage_duration_seconds`` histogram
    family, with the cumulative ``le`` buckets the format requires; every
    entry of ``gauges`` becomes a ``<prefix>_<name>`` gauge.
    """
    lines: List[str] = []
    for name in sorted(counters):
        value = counters[name]
        if name.endswith("_high_water"):
            # queue-depth high-water marks are level gauges, not
            # monotone accumulators; a _total suffix would invite rate()
            metric = f"{prefix}_{name}"
            lines.append(f"# HELP {metric} CommunicationStats.{name} gauge.")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(value)}")
            continue
        metric = f"{prefix}_{name}_total"
        lines.append(f"# HELP {metric} CommunicationStats.{name} accumulator.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name in sorted(gauges or ()):
        metric = f"{prefix}_{name}"
        lines.append(f"# HELP {metric} MetricsRegistry.gauges {name}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauges[name])}")
    if histograms:
        family = f"{prefix}_stage_duration_seconds"
        lines.append(f"# HELP {family} Span latency by pipeline stage.")
        lines.append(f"# TYPE {family} histogram")
        for stage in sorted(histograms):
            histogram = histograms[stage]
            cumulative = 0
            for bound, count in zip(BUCKET_BOUNDS, histogram.counts):
                cumulative += count
                lines.append(
                    f'{family}_bucket{{stage="{stage}",le="{_format_bound(bound)}"}}'
                    f" {cumulative}"
                )
            cumulative += histogram.counts[-1]
            lines.append(f'{family}_bucket{{stage="{stage}",le="+Inf"}} {cumulative}')
            lines.append(
                f'{family}_sum{{stage="{stage}"}} '
                f"{_format_value(histogram.total_seconds)}"
            )
            lines.append(f'{family}_count{{stage="{stage}"}} {cumulative}')
    return "\n".join(lines) + "\n"
